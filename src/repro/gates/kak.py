"""Local-equivalence analysis of two-qubit unitaries (KAK / Weyl chamber).

The paper's baseline decomposer ("Cirq-like", Section VII.A / Figure 6) is a
KAK-style analytic decomposition.  This module provides the invariant
machinery it rests on:

* the magic (Bell) basis and the ``gamma`` matrix ``m m^T`` whose spectrum
  is invariant under single-qubit rotations before and after the gate,
* local invariants (characteristic-polynomial coefficients of ``gamma``,
  equivalent to the Makhlin invariants),
* a local-equivalence test,
* Weyl-chamber coordinates ``(x, y, z)`` with
  ``pi/4 >= x >= y >= |z|``,
* a full KAK decomposition (:func:`kak_decomposition`): the chamber point
  together with the single-qubit factors before and after it,
* minimal two-qubit gate counts for CZ / iSWAP / sqrt(iSWAP) bases: the
  CZ criterion is the Shende-Bullock-Markov result, two iSWAPs reach the
  ``z = 0`` plane, and two sqrt(iSWAP) gates reach the region
  ``x >= y + |z|`` (Huang et al., arXiv:2105.06074).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Tuple

import numpy as np

from repro.gates import standard
from repro.gates.unitary import is_unitary

MAGIC_BASIS = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / np.sqrt(2)
)
"""The magic (Bell-like) basis change matrix.

In this basis every tensor product of single-qubit unitaries becomes a real
orthogonal matrix, which is what makes the ``gamma`` spectrum a local
invariant.
"""

_MAGIC_DAGGER = MAGIC_BASIS.conj().T

_ATOL = 1e-7


def _to_su4(matrix: np.ndarray) -> np.ndarray:
    """Rescale a 4x4 unitary to determinant one (principal fourth root)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError("expected a two-qubit (4x4) unitary")
    det = np.linalg.det(matrix)
    return matrix / det ** 0.25


def gamma_matrix(matrix: np.ndarray) -> np.ndarray:
    """Return ``gamma(U) = m m^T`` with ``m`` the SU(4) form of ``U`` in the magic basis.

    The spectrum of ``gamma`` is invariant (up to an overall sign from the
    fourth-root ambiguity of the SU(4) normalisation) under multiplication
    of ``U`` by single-qubit unitaries on either side.
    """
    m = MAGIC_BASIS.conj().T @ _to_su4(matrix) @ MAGIC_BASIS
    return m @ m.T


def local_invariants(matrix: np.ndarray) -> Tuple[complex, complex, complex]:
    """Characteristic-polynomial coefficients ``(e1, e2, e3)`` of ``gamma(U)``.

    ``det(lambda I - gamma) = lambda^4 - e1 lambda^3 + e2 lambda^2 - e3 lambda + 1``.
    Two two-qubit unitaries are locally equivalent exactly when their
    invariants coincide, modulo the sign ambiguity ``(e1, e2, e3) ->
    (-e1, e2, -e3)`` coming from the SU(4) normalisation.
    """
    gamma = gamma_matrix(matrix)
    eigenvalues = np.linalg.eigvals(gamma)
    e1 = complex(np.sum(eigenvalues))
    e2 = complex(
        sum(
            eigenvalues[i] * eigenvalues[j]
            for i, j in itertools.combinations(range(4), 2)
        )
    )
    e3 = complex(
        sum(
            eigenvalues[i] * eigenvalues[j] * eigenvalues[k]
            for i, j, k in itertools.combinations(range(4), 3)
        )
    )
    return e1, e2, e3


def invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the local-invariant vectors of two unitaries.

    The distance is zero exactly when the two gates are locally equivalent
    (equal up to single-qubit rotations before/after and global phase).
    """
    ea = np.asarray(local_invariants(a))
    eb = np.asarray(local_invariants(b))
    flip = np.array([-1.0, 1.0, -1.0])
    direct = float(np.linalg.norm(ea - eb))
    flipped = float(np.linalg.norm(ea * flip - eb))
    return min(direct, flipped)


def is_locally_equivalent(a: np.ndarray, b: np.ndarray, atol: float = 1e-6) -> bool:
    """Return True if ``a`` and ``b`` differ only by single-qubit rotations."""
    return invariant_distance(a, b) < atol


def _sort_into_chamber(coordinates) -> Tuple[float, float, float]:
    """Map a point of the box ``|x|, |y|, |z| <= pi/4`` to its chamber image.

    The eigenphase multiset of the canonical gate is invariant under
    coordinate permutations and under flipping the signs of any two
    coordinates; sorting by magnitude and repairing signs in pairs maps
    every image back into the chamber.
    """
    values = [float(v) for v in coordinates]
    values.sort(key=abs, reverse=True)
    x, y, z = values
    if x < 0 and y < 0:
        x, y = -x, -y
    elif x < 0:
        x, z = -x, -z
    elif y < 0:
        y, z = -y, -z
    if abs(x - np.pi / 4) < 1e-9 and z < 0:
        z = -z
    return x, y, z


def weyl_coordinates(matrix: np.ndarray) -> np.ndarray:
    """Weyl-chamber coordinates ``(x, y, z)`` of a two-qubit unitary, as an array.

    Every two-qubit unitary is locally equivalent to the canonical gate
    ``exp(i (x XX + y YY + z ZZ))`` (:func:`repro.gates.parametric.canonical_gate`)
    for a unique point in the Weyl chamber ``pi/4 >= x >= y >= |z|``
    (with ``z >= 0`` when ``x = pi/4``).  The point is read off the
    eigenphases of ``gamma``: ``gamma`` is unitary, so its eigenvalues
    ``exp(2i t_k)`` are exact to rounding even on the chamber's degenerate
    faces (``x = y``, ``y = |z|``, ``x = pi/4``) where they coincide.  The
    eigenphases ``t = (x - y + z, -x + y + z, x + y - z, -x - y - z)`` are
    known up to their order, a multiple of ``pi`` each and the sign of
    ``gamma``; any choice that sums to zero solves to a point whose image
    under permutations, sign flips in pairs and ``pi/2`` shifts of single
    coordinates (all local equivalences) is the chamber point.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not is_unitary(matrix, atol=1e-6):
        raise ValueError("weyl_coordinates requires a unitary matrix")
    phases = np.sort(np.angle(np.linalg.eigvals(gamma_matrix(matrix))) / 2.0)
    # The eigenvalues multiply to one, so the halved phases sum to a
    # multiple of pi; move that multiple off the largest ones.
    excess = int(round(phases.sum() / np.pi))
    if excess > 0:
        phases[-excess:] -= np.pi
    elif excess < 0:
        phases[:-excess] += np.pi
    x, y, z = phases[0] + phases[2], phases[1] + phases[2], phases[0] + phases[1]
    return chamber_point(np.array([x, y, z]) / 2.0)


def chamber_point(point) -> np.ndarray:
    """The chamber point of ``A(point)`` for any real ``point``.

    ``pi/2`` shifts of single coordinates are local equivalences, so each
    coordinate is first moved into ``[-pi/4, pi/4]``; :func:`_sort_into_chamber`
    does the rest.
    """
    point = np.array(point, dtype=float)
    point -= np.pi / 2 * np.round(point / (np.pi / 2))
    return np.array(_sort_into_chamber(point))


_PAULIS = (standard.X, standard.Y, standard.Z)

# ``v`` with ``(v (x) v) A(c) (v (x) v)^dagger = A(c with two coordinates
# swapped)``: S maps X -> Y, Y -> -X; Rx(pi/2) maps Y -> Z, Z -> -Y; H swaps
# X and Z and negates Y.
_COORDINATE_SWAPS = {
    (0, 1): standard.S,
    (1, 2): np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2),
    (0, 2): standard.H,
}

# Row k gives the phase of A(x, y, z)'s k-th magic-basis eigenvalue.
_MAGIC_PHASES = np.array([[1, -1, 1], [1, 1, -1], [-1, -1, -1], [-1, 1, 1]], dtype=float)

# Mixing weights of Im(gamma) into Re(gamma) tried in turn; any weight
# that separates gamma's distinct eigenvalues works.
_EIGENBASIS_MIXES = (0.5772156649015329, 1.6180339887498949, -0.4142135623730950)


class KakDecomposition(NamedTuple):
    """``U = phase * (left[0] (x) left[1]) @ A(*point) @ (right[0] (x) right[1])``.

    ``A(x, y, z) = exp(i (x XX + y YY + z ZZ))`` (:func:`canonical_unitary`),
    ``point`` is the chamber point of :func:`weyl_coordinates`, and
    the four factors are 2x2 unitaries; ``right`` acts first.
    """

    phase: complex
    left: Tuple[np.ndarray, np.ndarray]
    point: np.ndarray
    right: Tuple[np.ndarray, np.ndarray]


def canonical_unitary(point) -> np.ndarray:
    """``A(x, y, z) = exp(i (x XX + y YY + z ZZ))`` from its magic-basis eigenvalues.

    Equal to :func:`repro.gates.parametric.canonical_gate` to rounding,
    without a matrix exponential.
    """
    phases = np.exp(1j * (_MAGIC_PHASES @ np.asarray(point, dtype=float)))
    return (MAGIC_BASIS * phases) @ _MAGIC_DAGGER


def _real_eigenbasis(gamma: np.ndarray) -> np.ndarray:
    """A rotation ``O`` (real, ``det O = 1``) with ``O^T gamma O`` diagonal.

    ``gamma`` is unitary and symmetric, so its real and imaginary parts are
    commuting real symmetric matrices with a common orthonormal eigenbasis:
    the eigenbasis of a generic mix of the two.  A mix that happens to
    merge two distinct eigenvalues leaves off-diagonal residue, so mixes
    are tried until one diagonalises ``gamma`` to rounding.
    """
    best, best_residue = None, np.inf
    for mix in _EIGENBASIS_MIXES:
        vectors = np.linalg.eigh(gamma.real + mix * gamma.imag)[1]
        rotated = vectors.T @ gamma @ vectors
        residue = np.abs(rotated - np.diag(np.diag(rotated))).max()
        if residue < best_residue:
            best, best_residue = vectors, residue
        if residue < 1e-13:
            break
    if np.linalg.det(best) < 0:
        best[:, 0] = -best[:, 0]
    return best


def _tensor_factors(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` with ``a (x) b = matrix``, for an exact tensor product of unitaries."""
    blocks = matrix.reshape(2, 2, 2, 2)  # [i, k, j, l] = a[i, j] * b[k, l]
    weights = (np.abs(blocks) ** 2).sum(axis=(0, 2))
    k, l = np.unravel_index(int(np.argmax(weights)), (2, 2))
    first = blocks[:, k, :, l]
    first = first / np.sqrt(np.linalg.det(first))
    second = np.einsum("ij,ikjl->kl", first.conj(), blocks) / 2.0
    return first, second


def kak_decomposition(matrix: np.ndarray) -> KakDecomposition:
    """KAK decomposition of a two-qubit unitary into the Weyl chamber.

    In the magic basis the SU(4) form ``m`` of ``U`` factors as
    ``O_1 D O_2`` with ``O_1``, ``O_2`` rotations (tensor products of
    single-qubit unitaries in the computational basis) and ``D`` diagonal
    (a canonical gate times a phase).  ``O_1`` diagonalises ``gamma = m m^T
    = O_1 D^2 O_1^T`` (:func:`_real_eigenbasis`), ``D`` is a square root of
    that diagonal with its signs fixed so ``det O_2 = 1``, and ``O_2 =
    D^-1 O_1^T m``.  The coordinates read off ``D`` are then moved into
    the chamber by local equivalences (``pi/2`` shifts, pairwise sign
    flips, coordinate swaps), each folded into the phase and the factors,
    so ``U`` is rebuilt exactly; see :class:`KakDecomposition`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not is_unitary(matrix, atol=1e-6):
        raise ValueError("kak_decomposition requires a unitary matrix")
    root = np.linalg.det(matrix) ** 0.25
    magic = _MAGIC_DAGGER @ (matrix / root) @ MAGIC_BASIS
    left = _real_eigenbasis(magic @ magic.T)
    turned = left.T @ magic
    diagonal = np.sqrt(np.einsum("ij,ij->i", turned, turned))
    if np.prod(diagonal).real < 0:
        diagonal[0] = -diagonal[0]
    right = (turned / diagonal[:, None]).real
    # D = exp(i phi) A(x, y, z) in the magic basis: the columns of
    # [1, _MAGIC_PHASES] are orthogonal, each of squared norm 4.
    angles = np.angle(diagonal)
    phase = complex(root * np.exp(1j * angles.sum() / 4.0))
    point = _MAGIC_PHASES.T @ angles / 4.0
    a1, b1 = _tensor_factors(MAGIC_BASIS @ left @ _MAGIC_DAGGER)
    a2, b2 = _tensor_factors(MAGIC_BASIS @ right @ _MAGIC_DAGGER)

    # A(c) = A(c - n pi/2 e_k) (i P_k (x) P_k)^n: bring each coordinate
    # into [-pi/4, pi/4] as weyl_coordinates does.
    for k, pauli in enumerate(_PAULIS):
        shift = int(np.round(point[k] / (np.pi / 2)))
        point[k] -= shift * np.pi / 2
        phase *= 1j**shift
        if shift % 2:
            a2, b2 = pauli @ a2, pauli @ b2
    # A(c) = (v (x) v)^dagger A(c swapped) (v (x) v): sort by magnitude.
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if abs(point[j]) > abs(point[i]):
            v = _COORDINATE_SWAPS[(i, j)]
            point[[i, j]] = point[[j, i]]
            a1, b1 = a1 @ v.conj().T, b1 @ v.conj().T
            a2, b2 = v @ a2, v @ b2

    def negate_all_but(k: int) -> None:
        # A(c) = (P_k (x) I) A(c with the other two negated) (P_k (x) I).
        nonlocal a1, a2
        point[[j for j in range(3) if j != k]] *= -1
        a1, a2 = a1 @ _PAULIS[k], _PAULIS[k] @ a2

    if point[0] < 0 and point[1] < 0:
        negate_all_but(2)
    elif point[0] < 0:
        negate_all_but(1)
    elif point[1] < 0:
        negate_all_but(0)
    if abs(point[0] - np.pi / 4) < 1e-9 and point[2] < 0:
        # (pi/4, y, -z) -> (-pi/4, y, z) -> (pi/4, y, z).
        negate_all_but(1)
        point[0] += np.pi / 2
        phase *= -1j
        a2, b2 = _PAULIS[0] @ a2, _PAULIS[0] @ b2
    return KakDecomposition(phase, (a1, b1), point, (a2, b2))


def min_cz_count(matrix: np.ndarray, atol: float = 1e-6) -> int:
    """Minimum number of CZ (equivalently CNOT) gates needed to implement ``matrix`` exactly.

    Implements the Shende-Bullock-Markov criteria:

    * 0 gates if the unitary is a tensor product of single-qubit gates,
    * 1 gate if it is locally equivalent to CZ,
    * 2 gates if ``Tr(gamma)`` is real,
    * 3 gates otherwise.
    """
    if is_locally_equivalent(matrix, np.eye(4), atol=atol):
        return 0
    if is_locally_equivalent(matrix, standard.CZ, atol=atol):
        return 1
    e1, _, _ = local_invariants(matrix)
    if abs(e1.imag) < max(atol, 1e-6):
        return 2
    return 3


def min_iswap_count(matrix: np.ndarray, atol: float = 1e-6) -> int:
    """Minimum number of iSWAP gates needed for ``matrix``.

    Two iSWAP applications with arbitrary interleaved single-qubit gates
    reach exactly the gates with vanishing third Weyl coordinate (``z = 0``,
    read to ``atol``: :func:`weyl_coordinates` is exact to rounding there);
    everything else needs 3.
    """
    if is_locally_equivalent(matrix, np.eye(4), atol=atol):
        return 0
    if is_locally_equivalent(matrix, standard.ISWAP, atol=atol):
        return 1
    _, _, z = weyl_coordinates(matrix)
    if abs(z) < atol:
        return 2
    return 3


def min_sqrt_iswap_count(matrix: np.ndarray, atol: float = 1e-6) -> int:
    """Minimum number of sqrt(iSWAP) gates needed to implement ``matrix`` exactly.

    Two sqrt(iSWAP) gates with interleaved single-qubit gates reach exactly
    the Weyl-chamber points with ``x >= y + |z|`` (Huang et al.,
    arXiv:2105.06074), which contains the ``z = 0`` plane (CZ, iSWAP,
    every XY(theta)); three reach every gate, SWAP included.
    """
    if is_locally_equivalent(matrix, np.eye(4), atol=atol):
        return 0
    if is_locally_equivalent(matrix, standard.SQRT_ISWAP, atol=atol):
        return 1
    x, y, z = weyl_coordinates(matrix)
    if x >= y + abs(z) - atol:
        return 2
    return 3


def min_gate_count(matrix: np.ndarray, basis: str, atol: float = 1e-6) -> int:
    """Dispatch to the minimal-count rule for the named two-qubit basis gate.

    Parameters
    ----------
    matrix:
        Target two-qubit unitary.
    basis:
        One of ``"cz"``, ``"cnot"``, ``"cx"``, ``"iswap"``, ``"sqrt_iswap"``.
    """
    key = basis.lower()
    if key in ("cz", "cnot", "cx"):
        return min_cz_count(matrix, atol=atol)
    if key == "iswap":
        return min_iswap_count(matrix, atol=atol)
    if key in ("sqrt_iswap", "sqiswap"):
        return min_sqrt_iswap_count(matrix, atol=atol)
    raise ValueError(f"no analytic gate-count rule for basis {basis!r}")
