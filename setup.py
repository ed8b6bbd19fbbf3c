"""Packaging for the ``repro`` reproduction package.

There is no ``pyproject.toml``: setuptools discovers the package from the
``src/repro`` layout, and this file only declares the runtime
dependencies.  ``pip install -e . --no-use-pep517 --no-build-isolation``
works offline in environments that lack ``wheel``.

scipy 1.15 is the first release with the C port of L-BFGS-B whose
``scipy.optimize._lbfgsb.setulb`` signature NuOp's optimiser loop calls
(``repro.core.decomposer.minimise_lbfgsb``).
"""

from setuptools import setup

setup(
    install_requires=[
        "numpy",
        "networkx",
        "scipy>=1.15",
    ],
)
