"""Utilities for working with unitary matrices.

This module provides the numerical plumbing shared by the rest of the
library: random unitary sampling (Haar measure), fidelity measures used by
NuOp (Hilbert-Schmidt inner product, Eq. 1 of the paper), global-phase
insensitive comparisons, single-qubit (ZYZ / U3) synthesis and
nearest-Kronecker-product factoring of two-qubit local unitaries.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence, Tuple

import numpy as np


def fast_allclose(a: np.ndarray, b: np.ndarray, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """``np.allclose(a, b, rtol, atol)`` for arrays, with less overhead.

    For finite ``b`` numpy's elementwise test reduces to
    ``|a - b| <= atol + rtol |b|`` (a NaN or infinite entry of ``a``
    fails it, as in numpy).  An infinite or NaN entry of ``b`` is the one
    case where that formula and numpy disagree, so then ``np.allclose``
    decides.
    """
    if not np.isfinite(b).all():
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))
    return bool((np.abs(a - b) <= atol + rtol * np.abs(b)).all())


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Return True if ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix.conj().T @ matrix
    return fast_allclose(product, np.eye(matrix.shape[0]), atol=atol)


def is_hermitian(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Return True if ``matrix`` is Hermitian within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    return fast_allclose(matrix, matrix.conj().T, atol=atol)


def random_unitary(dim: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample a Haar-random unitary of dimension ``dim``.

    Uses the QR decomposition of a Ginibre-ensemble matrix with the phase
    correction of Mezzadri (2007) so that the distribution is exactly the
    Haar measure.
    """
    rng = np.random.default_rng(rng)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_special_unitary(
    dim: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample a Haar-random special unitary (determinant 1)."""
    u = random_unitary(dim, rng)
    det = np.linalg.det(u)
    return u / det ** (1.0 / dim)


def random_su4(rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample a Haar-random SU(4) matrix.

    Quantum Volume circuits draw their two-qubit blocks from this
    distribution (Figure 2a of the paper).
    """
    return random_special_unitary(4, rng)


def remove_global_phase(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` rescaled so its largest-magnitude entry is real positive."""
    matrix = np.asarray(matrix, dtype=complex)
    index = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    phase = matrix[index] / abs(matrix[index])
    return matrix / phase


def allclose_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-7
) -> bool:
    """Return True if ``a`` and ``b`` are equal up to a global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    # Optimal alignment phase under the Frobenius inner product.
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-12:
        return fast_allclose(a, b, atol=atol)
    phase = overlap / abs(overlap)
    return fast_allclose(a, b * phase, atol=atol)


def hilbert_schmidt_fidelity(u_decomposed: np.ndarray, u_target: np.ndarray) -> float:
    """Decomposition fidelity ``F_d`` from Eq. 1 of the paper.

    ``F_d = |Tr(Ud^dagger Ut)| / dim``.  The absolute value makes the
    measure insensitive to global phase, which physical circuits cannot
    observe.  The value is 1 when the decomposition matches the target and
    approaches 0 for orthogonal unitaries.
    """
    u_decomposed = np.asarray(u_decomposed, dtype=complex)
    u_target = np.asarray(u_target, dtype=complex)
    dim = u_target.shape[0]
    return float(abs(np.trace(u_decomposed.conj().T @ u_target)) / dim)


def average_gate_fidelity(u_decomposed: np.ndarray, u_target: np.ndarray) -> float:
    """Average gate fidelity between two unitaries.

    ``F_avg = (|Tr(Ud^dagger Ut)|^2 + d) / (d^2 + d)`` where ``d`` is the
    Hilbert-space dimension.  This is the state-averaged fidelity of the
    channel ``Ud Ut^dagger`` and is the quantity experiments report.
    """
    u_decomposed = np.asarray(u_decomposed, dtype=complex)
    u_target = np.asarray(u_target, dtype=complex)
    dim = u_target.shape[0]
    overlap = abs(np.trace(u_decomposed.conj().T @ u_target)) ** 2
    return float((overlap + dim) / (dim * dim + dim))


def process_fidelity_from_hs(hs_fidelity: float, dim: int = 4) -> float:
    """Convert a Hilbert-Schmidt fidelity ``|Tr|/d`` into a process fidelity.

    Process fidelity is ``|Tr|^2 / d^2``, i.e. the square of the
    Hilbert-Schmidt fidelity.
    """
    return float(hs_fidelity**2)


def unitary_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-insensitive distance ``1 - F_d`` between two unitaries."""
    return 1.0 - hilbert_schmidt_fidelity(a, b)


def kron_n(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of an arbitrary number of matrices, left to right."""
    result = np.array([[1.0 + 0j]])
    for matrix in matrices:
        result = np.kron(result, np.asarray(matrix, dtype=complex))
    return result


def embed_unitary(
    gate: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a k-qubit gate acting on ``qubits`` into an ``num_qubits`` unitary.

    Qubit 0 is the most significant bit of the basis index (big-endian),
    matching the convention of :mod:`repro.circuits` and
    :mod:`repro.simulators`.
    """
    gate = np.asarray(gate, dtype=complex)
    k = int(round(math.log2(gate.shape[0])))
    if gate.shape != (2**k, 2**k):
        raise ValueError("gate matrix must be square with power-of-two dimension")
    if len(qubits) != k:
        raise ValueError(f"gate acts on {k} qubits but {len(qubits)} indices given")
    if len(set(qubits)) != k:
        raise ValueError("qubit indices must be distinct")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise ValueError("qubit index out of range")

    dim = 2**num_qubits
    others = [q for q in range(num_qubits) if q not in qubits]
    perm = list(qubits) + others
    big = np.kron(gate, np.eye(2 ** len(others), dtype=complex))
    # ``big`` acts on qubits ordered as ``perm`` (gate qubits first).  Reorder
    # its row and column axes back to the standard qubit order.
    tensor = big.reshape((2,) * (2 * num_qubits))
    inverse = [perm.index(q) for q in range(num_qubits)]
    order = inverse + [num_qubits + axis for axis in inverse]
    tensor = np.transpose(tensor, order)
    return tensor.reshape(dim, dim)


def nearest_kronecker_product(
    matrix: np.ndarray, dims: Tuple[int, int] = (2, 2)
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Factor ``matrix`` into the closest Kronecker product ``A (x) B``.

    Uses the Pitsianis-Van Loan rearrangement plus a rank-1 SVD
    approximation.  Returns ``(A, B, residual)`` where ``residual`` is the
    Frobenius norm of ``matrix - A (x) B``; it is ~0 when the input is an
    exact tensor product (e.g. the local factors of a KAK decomposition).
    """
    matrix = np.asarray(matrix, dtype=complex)
    d1, d2 = dims
    if matrix.shape != (d1 * d2, d1 * d2):
        raise ValueError("matrix shape incompatible with requested factor dims")
    blocks = matrix.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(
        d1 * d1, d2 * d2
    )
    u, s, vh = np.linalg.svd(blocks)
    a = np.sqrt(s[0]) * u[:, 0].reshape(d1, d1)
    b = np.sqrt(s[0]) * vh[0, :].reshape(d2, d2)
    residual = float(np.linalg.norm(matrix - np.kron(a, b)))
    return a, b, residual


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float, float]:
    """Decompose a single-qubit unitary into ZYZ Euler angles.

    Returns ``(alpha, theta, beta, phase)`` such that::

        matrix = exp(i*phase) * Rz(alpha) @ Ry(theta) @ Rz(beta)
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("zyz_angles requires a 2x2 matrix")
    det = np.linalg.det(matrix)
    phase = 0.5 * cmath.phase(det)
    su2 = matrix * np.exp(-1j * phase)
    # su2 = [[a, -conj(b)], [b, conj(a)]] in terms of Cayley-Klein params.
    theta = 2.0 * math.atan2(abs(su2[1, 0]), abs(su2[0, 0]))
    angle_plus = cmath.phase(su2[1, 1]) if abs(su2[1, 1]) > 1e-12 else 0.0
    angle_minus = cmath.phase(su2[1, 0]) if abs(su2[1, 0]) > 1e-12 else 0.0
    alpha = angle_plus + angle_minus
    beta = angle_plus - angle_minus
    return alpha, theta, beta, phase


def u3_angles_from_unitary(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Return ``(alpha, beta, lam)`` such that ``u3(alpha, beta, lam)`` equals
    ``matrix`` up to global phase.

    This is the inverse of :func:`repro.gates.parametric.u3` and is used to
    report NuOp decompositions in the U3 form shown in Figure 2 of the
    paper.
    """
    from repro.gates.parametric import u3

    alpha_z, theta_y, beta_z, _ = zyz_angles(np.asarray(matrix, dtype=complex))
    # Rz(a) Ry(t) Rz(b) = u3(t, a, b) up to global phase with the paper's
    # U3 convention; verify and correct the half-angle bookkeeping directly.
    candidate = u3(theta_y, alpha_z, beta_z)
    if allclose_up_to_global_phase(candidate, matrix, atol=1e-6):
        return theta_y, alpha_z, beta_z
    # Fall back to a short numerical polish (rarely needed; guards against
    # branch-cut corner cases such as theta ~ pi).
    from scipy.optimize import minimize

    def objective(params: np.ndarray) -> float:
        return 1.0 - hilbert_schmidt_fidelity(u3(*params), matrix)

    best = None
    for start in ([theta_y, alpha_z, beta_z], [0.1, 0.2, 0.3], [np.pi / 2, 0.0, 0.0]):
        result = minimize(objective, np.asarray(start, dtype=float), method="BFGS")
        if best is None or result.fun < best.fun:
            best = result
    return float(best.x[0]), float(best.x[1]), float(best.x[2])
