"""Template circuits for NuOp's numerical decomposition (Figure 4 of the paper).

A template with ``L`` layers alternates arbitrary single-qubit rotations
(two ``U3`` gates per layer boundary) with the target hardware two-qubit
gate::

    K_0 -- G -- K_1 -- G -- ... -- G -- K_L

The optimisation variables are the ``6 (L+1)`` single-qubit angles; for the
continuous FullXY / FullfSim sets the two-qubit gate angles of every layer
are variables as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.gates.parametric import fsim, xy

OBJECTIVE_VERSION = 2
"""Revision of :meth:`TemplateSpec.objective_with_gradient`.

Folded into every cache key whose content the objective produces (the
compilation cache, tuner verdicts and decomposition tables): a new
objective may move optimiser trajectories in the last ulp, so results
written under an older objective must never be served.  Bump on any
change to the objective's arithmetic."""


_IDENTITY = np.eye(4)


def _u3_factors(angles: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``cos``/``sin`` of the half polar angle and the phase exponentials.

    Returns ``(c, s, exp(i beta), exp(i lam), exp(i beta) exp(i lam))``
    for ``angles[..., (alpha, beta, lam)]``, shared by :func:`_batched_u3`
    and :func:`_batched_u3_derivatives`.
    """
    alpha = angles[..., 0]
    eb = np.exp(1j * angles[..., 1])
    el = np.exp(1j * angles[..., 2])
    return np.cos(alpha / 2.0), np.sin(alpha / 2.0), eb, el, eb * el


def _batched_u3(angles: np.ndarray, factors: Optional[Tuple[np.ndarray, ...]] = None) -> np.ndarray:
    """U3 matrices for a batch of angle triples.

    ``angles[..., (alpha, beta, lam)]`` maps to matrices of shape
    ``angles.shape[:-1] + (2, 2)`` in the convention of
    :func:`repro.gates.parametric.u3`.  ``factors`` is
    :func:`_u3_factors` of ``angles`` when the caller already has it.
    """
    c, s, eb, el, ebl = _u3_factors(angles) if factors is None else factors
    matrices = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    matrices[..., 0, 0] = c
    matrices[..., 0, 1] = -el * s
    matrices[..., 1, 0] = eb * s
    matrices[..., 1, 1] = ebl * c
    return matrices


def _batched_u3_derivatives(
    angles: np.ndarray, factors: Optional[Tuple[np.ndarray, ...]] = None
) -> np.ndarray:
    """Partial derivatives of :func:`_batched_u3` along each of the three angles.

    Output shape is ``angles.shape[:-1] + (3, 2, 2)``: one 2x2 derivative
    matrix per angle, per batch element.
    """
    c, s, eb, el, ebl = _u3_factors(angles) if factors is None else factors
    derivatives = np.zeros(angles.shape[:-1] + (3, 2, 2), dtype=complex)
    derivatives[..., 0, 0, 0] = -0.5 * s
    derivatives[..., 0, 0, 1] = -0.5 * el * c
    derivatives[..., 0, 1, 0] = 0.5 * eb * c
    derivatives[..., 0, 1, 1] = -0.5 * ebl * s
    derivatives[..., 1, 1, 0] = 1j * eb * s
    derivatives[..., 1, 1, 1] = derivatives[..., 2, 1, 1] = 1j * ebl * c
    derivatives[..., 2, 0, 1] = -1j * el * s
    return derivatives


def _boundary_blocks(locals_ab: np.ndarray) -> np.ndarray:
    """4x4 blocks ``U3_a (x) U3_b`` of every boundary layer.

    ``locals_ab`` is the U3 stack ``(boundaries, 2, 2, 2)``; returns the
    block stack ``(boundaries, 4, 4)``.
    """
    blocks = np.einsum("nij,nkl->nikjl", locals_ab[:, 0], locals_ab[:, 1])
    return blocks.reshape(-1, 4, 4)


@dataclass(frozen=True)
class TemplateSpec:
    """Description of a template: number of layers plus the entangling gate model.

    ``two_qubit_family`` selects how the entangling gates are produced:

    * ``"fixed"`` -- every layer applies ``fixed_gate_matrix``,
    * ``"fsim"``  -- layer ``i`` applies ``fSim(theta_i, phi_i)`` with the
      angles taken from the parameter vector,
    * ``"xy"``    -- layer ``i`` applies ``XY(theta_i)``.
    """

    num_layers: int
    two_qubit_family: str = "fixed"
    fixed_gate_matrix: Optional[np.ndarray] = None
    _fixed_gates: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_layers < 0:
            raise ValueError("number of layers must be non-negative")
        if self.two_qubit_family not in ("fixed", "fsim", "xy"):
            raise ValueError("two_qubit_family must be 'fixed', 'fsim' or 'xy'")
        if self.two_qubit_family == "fixed" and self.num_layers > 0:
            if self.fixed_gate_matrix is None:
                raise ValueError("fixed templates need a gate matrix")
            matrix = np.asarray(self.fixed_gate_matrix, dtype=complex)
            object.__setattr__(self, "fixed_gate_matrix", matrix)
            # Built once: every objective evaluation reuses the stack.
            object.__setattr__(
                self, "_fixed_gates", np.broadcast_to(matrix, (self.num_layers, 4, 4))
            )

    @property
    def num_single_qubit_parameters(self) -> int:
        """Number of single-qubit angles (6 per boundary layer)."""
        return 6 * (self.num_layers + 1)

    @property
    def num_two_qubit_parameters(self) -> int:
        """Number of entangling-gate angles that are optimisation variables."""
        if self.two_qubit_family == "fsim":
            return 2 * self.num_layers
        if self.two_qubit_family == "xy":
            return self.num_layers
        return 0

    @property
    def num_parameters(self) -> int:
        """Total number of optimisation variables."""
        return self.num_single_qubit_parameters + self.num_two_qubit_parameters

    # -- parameter handling ---------------------------------------------------

    def split_parameters(self, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a flat parameter vector into (single-qubit, two-qubit) blocks."""
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {flat.size}"
            )
        boundary = self.num_single_qubit_parameters
        single = flat[:boundary].reshape(self.num_layers + 1, 2, 3)
        two = flat[boundary:]
        return single, two

    def _angle_rows(self, two_qubit_params: np.ndarray) -> np.ndarray:
        """Entangling-gate angles as one row per layer (empty rows when fixed)."""
        width = self.num_two_qubit_parameters // max(self.num_layers, 1)
        return np.asarray(two_qubit_params, dtype=float).reshape(self.num_layers, width)

    def two_qubit_matrices(self, two_qubit_params: np.ndarray) -> np.ndarray:
        """Entangling-gate matrices of every layer, stacked as ``(L, 4, 4)``."""
        if self.num_layers == 0:
            return np.zeros((0, 4, 4), dtype=complex)
        if self.two_qubit_family == "fixed":
            return self._fixed_gates
        gate = fsim if self.two_qubit_family == "fsim" else xy
        return np.array([gate(*row) for row in self._angle_rows(two_qubit_params)])

    def two_qubit_angles(self, two_qubit_params: np.ndarray) -> List[Tuple[float, ...]]:
        """Per-layer entangling-gate angles (empty tuples for fixed templates)."""
        return [tuple(float(v) for v in row) for row in self._angle_rows(two_qubit_params)]

    # -- evaluation -------------------------------------------------------------

    def unitary(self, flat_params: np.ndarray) -> np.ndarray:
        """Unitary represented by the template for the given parameters."""
        single, two = self.split_parameters(flat_params)
        boundary = _boundary_blocks(_batched_u3(single))
        unitary = boundary[0]
        for gate, layer in zip(self.two_qubit_matrices(two), boundary[1:]):
            unitary = layer @ (gate @ unitary)
        return unitary

    def initial_parameters(
        self, rng: Optional[np.random.Generator] = None, scale: float = np.pi
    ) -> np.ndarray:
        """A parameter vector: zeros when ``rng`` is None, random otherwise."""
        if rng is None:
            return np.zeros(self.num_parameters)
        return rng.uniform(-scale, scale, size=self.num_parameters)

    # -- objective with analytic gradient -----------------------------------------

    def objective_with_gradient(
        self, flat_params: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Value and gradient of ``1 - |Tr(U(params)^dagger target)| / 4``.

        One batched pass serves every parameter.  With the template
        written ``U = after[n] K_n before[n]`` around boundary ``n``, the
        derivative of the overlap along a factor derivative ``dK_n`` is
        ``Tr(dK_n^dagger middle[n])`` with
        ``middle[n] = after[n]^dagger target before[n]^dagger``.  All
        ``middle`` matrices come from one batched product; contracting
        each with the other qubit's U3 leaves a 2x2 reduced matrix per
        qubit, against which the three U3 derivatives are traced.  The
        entangling-angle derivatives use the gate-slot matrices
        ``K_n^dagger middle[n] G_n`` and only the few nonzero entries of
        ``dG``, so no 4x4 derivative is ever built.

        Trigonometric factors are shared between the U3s and their
        derivatives, and the fixed-gate stack is built with the template,
        to save numpy dispatches.  Value and gradient bytes are pinned by
        ``tests/golden/objective_digests.json``: a rewrite that keeps them
        keeps :data:`OBJECTIVE_VERSION`, one that moves them bumps it.
        """
        single, two = self.split_parameters(flat_params)
        target = np.asarray(target, dtype=complex)
        num_layers = self.num_layers
        boundaries = num_layers + 1
        factors = _u3_factors(single)
        locals_ab = _batched_u3(single, factors)
        boundary = _boundary_blocks(locals_ab)
        gates = self.two_qubit_matrices(two)

        # before[n] = G_n K_{n-1} ... K_0 and after[n] = K_L G_L ... G_{n+1}.
        before = np.empty((boundaries, 4, 4), dtype=complex)
        after = np.empty((boundaries, 4, 4), dtype=complex)
        before[0] = after[num_layers] = _IDENTITY
        if num_layers:
            steps_up = gates @ boundary[:-1]
            steps_down = boundary[1:] @ gates
            for n in range(num_layers):
                before[n + 1] = steps_up[n] @ before[n]
            for n in range(num_layers - 1, -1, -1):
                after[n] = after[n + 1] @ steps_down[n]

        overlap = np.vdot(boundary[num_layers] @ before[num_layers], target)
        magnitude = abs(overlap)
        value = 1.0 - magnitude / 4.0
        if magnitude < 1e-12:
            return value, np.zeros(self.num_parameters)

        middle = (
            after.conj().transpose(0, 2, 1) @ target @ before.conj().transpose(0, 2, 1)
        )
        # Indexed [(a c), (b d)] with a/b the first qubit's row/column and
        # c/d the second's:
        # Tr((dA (x) B)^dagger M) = sum conj(dA)_ab conj(B)_cd M_acbd.
        blocks = middle.reshape(boundaries, 2, 2, 2, 2)
        conj_locals = locals_ab.conj()
        reduced = np.empty((boundaries, 2, 2, 2), dtype=complex)
        np.einsum("ncd,nacbd->nab", conj_locals[:, 1], blocks, out=reduced[:, 0])
        np.einsum("nab,nacbd->ncd", conj_locals[:, 0], blocks, out=reduced[:, 1])
        d_overlap = np.empty(self.num_parameters, dtype=complex)
        d_overlap[: 6 * boundaries] = np.einsum(
            "nqkab,nqab->nqk", _batched_u3_derivatives(single, factors).conj(), reduced
        ).ravel()

        if self.num_two_qubit_parameters:
            # slot[n - 1] = K_n^dagger middle[n] G_n
            #             = (after[n] K_n)^dagger target (K_{n-1} before[n-1])^dagger
            # (G_n is unitary), so d overlap / d angle = Tr(dG_n^dagger slot[n - 1]).
            slot = boundary[1:].conj().transpose(0, 2, 1) @ middle[1:] @ gates
            diagonal = slot[:, 1, 1] + slot[:, 2, 2]
            off_diagonal = slot[:, 1, 2] + slot[:, 2, 1]
            angles = self._angle_rows(two)
            if self.two_qubit_family == "fsim":
                d_two = np.empty((num_layers, 2), dtype=complex)
                d_two[:, 0] = (
                    -np.sin(angles[:, 0]) * diagonal
                    + 1j * np.cos(angles[:, 0]) * off_diagonal
                )
                d_two[:, 1] = 1j * np.exp(1j * angles[:, 1]) * slot[:, 3, 3]
            else:
                half = angles[:, 0] / 2
                d_two = -0.5 * (np.sin(half) * diagonal + 1j * np.cos(half) * off_diagonal)
            d_overlap[6 * boundaries:] = d_two.ravel()

        gradient = -np.real(overlap.conjugate() / magnitude * d_overlap) / 4.0
        return value, gradient


def fixed_gate_template(num_layers: int, gate_matrix: np.ndarray) -> TemplateSpec:
    """Template whose entangling gates are all the given fixed hardware gate."""
    return TemplateSpec(num_layers=num_layers, two_qubit_family="fixed", fixed_gate_matrix=gate_matrix)


def continuous_family_template(num_layers: int, family: str) -> TemplateSpec:
    """Template whose entangling-gate angles are optimisation variables (FullXY / FullfSim)."""
    return TemplateSpec(num_layers=num_layers, two_qubit_family=family)
