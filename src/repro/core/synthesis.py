"""Layer counts NuOp builds instead of optimising.

Wherever the best circuit of a template size is known, NuOp
(:mod:`repro.core.decomposer`) builds it from KAK decompositions
(:func:`repro.gates.kak.kak_decomposition`) and never runs L-BFGS-B:

* **no layer and one layer** of every fixed gate, FullXY and FullfSim.
  The best ``F_d`` is a closed form in the Weyl coordinates of the
  target and the gate (:func:`closed_form_fidelity`), a maximum of
  ``trace(t - p)`` over finitely many Weyl images ``p`` of the gate;
  the argmax image is the circuit;
* **two and three layers of a CZ- or iSWAP-class gate**: two layers
  reach the target with ``t_z`` dropped, three reach it exactly
  (Vatan & Williams, PRA 69, 032315);
* **sqrt(iSWAP)-class gates**: two layers reach exactly the region
  ``x >= y + |z|`` and three reach every target (Huang et al.,
  arXiv:2105.06074).  Three layers are built for the fixed gate and for
  FullXY / FullfSim (as ``XY(pi/2)`` / ``fSim(pi/4, 0)``), and two for
  FullXY / FullfSim targets inside the region.

Every construction is a product ``E_L . S M_{L-1} S ... M_1 S . E_0``
locally equal to a canonical gate ``A(q)`` (``S`` the gate's canonical
part, ``E`` and ``M`` single-qubit layers); the KAK decompositions of the
target and the gate turn it into the template's U3 angles
(:func:`_assemble`).  The template's ``F_d`` is ``trace(t - q)``, measured
on its unitary.  KAK decompositions (and with them Weyl coordinates) are
memoised in a registered LRU, so ``clear_experiment_caches()`` empties it
too.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.lru import MISSING, register_cache
from repro.core.templates import TemplateSpec
from repro.gates import standard
from repro.gates.kak import (
    KakDecomposition,
    canonical_unitary,
    chamber_point,
    kak_decomposition,
)
from repro.gates.parametric import fsim, xy

SYNTHESIS_VERSION = 2
"""Revision of the layer counts NuOp builds without optimising.

Folded into the compilation-cache key with the objective's revision: a
change here moves compiled circuits under unchanged inputs, so entries
written under an older revision must never be served."""

_KAK_CACHE = register_cache("kak decompositions", 4096)

Pair = Tuple[np.ndarray, np.ndarray]
"""Single-qubit factors ``(first qubit, second qubit)`` of a tensor product."""


def clear_kak_cache() -> None:
    """Drop every memoised KAK decomposition."""
    _KAK_CACHE.clear()


def matrix_key(matrix: np.ndarray) -> bytes:
    """Exact-bytes key of a matrix, canonicalised in global phase.

    The largest-magnitude entry is rotated real-positive first, so
    matrices that differ only in global phase (and hence in nothing NuOp
    measures) share a key.
    """
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    flat = matrix.reshape(-1)
    pivot = flat[int(np.argmax(np.abs(flat)))]
    magnitude = abs(pivot)
    if magnitude > 0.0:
        matrix = matrix * (pivot.conjugate() / magnitude)
    return matrix.tobytes()


def memoised_kak(matrix: np.ndarray, key: Optional[bytes] = None) -> Optional[KakDecomposition]:
    """Memoised KAK decomposition, ``None`` when ``matrix`` is not unitary.

    ``key`` is :func:`matrix_key` of ``matrix`` when the caller has it;
    every global phase of a matrix shares one entry.
    """
    key = matrix_key(matrix) if key is None else key
    found = _KAK_CACHE.get(key, MISSING)
    if found is MISSING:
        try:
            found = kak_decomposition(matrix)
        except ValueError:
            found = None
        _KAK_CACHE.put(key, found)
    return found


# ---------------------------------------------------------------------------
# Closed-form F_d of zero and one layer
# ---------------------------------------------------------------------------
#
# In the chamber convention of repro.gates.kak the canonical gate
# A(x, y, z) = exp(i (x XX + y YY + z ZZ)) has |Tr A| / 4 equal to
# |cos x cos y cos z + i sin x sin y sin z|, the "trace" of Cross et al.
# (PRA 100, 032328) and Peterson et al. (Quantum 6, 696).  A template
# (a1 (x) b1) A(p) (a2 (x) b2) around the target's KAK reaches
# F_d = trace(t - p) for every Weyl image p of its gate, and the best one
# layer does is the largest such value:
#
# * no layer:        p = 0;
# * one fixed layer: p = s g over the 8 sign vectors s.  Flipping one sign
#   gives the mirror image, locally equivalent only on the faces z = 0 and
#   x = pi/4, where every catalogue gate lies.  Off them the maximum over
#   the 8 is only an upper bound and the one over the 4 even ones only a
#   lower bound (the optimum lies between), so such gates get no form;
# * one XY layer:    p = (a, +-a, 0) with theta = 4a.  With u, v the first two
#   coordinates of t - p, 2 cos u cos v and 2 sin u sin v are cos d +- cos w,
#   d = t_x -+ t_y fixed and w = u +- v free in a, so 4 trace^2 =
#   cos^2 t_z (cos d + cos w)^2 + sin^2 t_z (cos d - cos w)^2 is convex in
#   cos w and peaks at w = 0 or pi: a = (t_x +- t_y - {0, pi}) / 2;
# * one fSim layer:  p_k = a, p_l = sigma a, p_m = c over the coordinate
#   pairs (k, l) and signs sigma.  The same argument with w' = t_m - c
#   free as well peaks at (1 + |cos d|) / 2, d = t_k - sigma t_l, with
#   a = (t_k + sigma t_l) / 2 and c = t_m (cos d >= 0) or t_m - pi/2.
#   fSim(2a, -4c') is locally A(a, a, c') and p is locally
#   A(a, a, sigma c), so phi = -4 sigma c.

_SIGN_VECTORS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_FSIM_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _trace_fidelity(points: np.ndarray) -> np.ndarray:
    """``|Tr A(x, y, z)| / 4`` over the last axis of ``points``."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return np.hypot(
        np.cos(x) * np.cos(y) * np.cos(z), np.sin(x) * np.sin(y) * np.sin(z)
    )


def _one_layer_images(
    target: np.ndarray, gate: Optional[np.ndarray], family: Optional[str]
) -> Tuple[np.ndarray, List[Tuple[float, ...]]]:
    """Candidate Weyl images ``p`` (rows) of one layer, with the family angles of each."""
    if family is None:
        return _SIGN_VECTORS * gate, [()] * len(_SIGN_VECTORS)
    x, y, z = target
    images, angles = [], []
    if family == "xy":
        for sigma in (1.0, -1.0):
            for shift in (0.0, np.pi):
                a = (x + sigma * y - shift) / 2.0
                images.append((a, sigma * a, 0.0))
                angles.append((4.0 * a,))
        return np.array(images), angles
    for k, l, m in _FSIM_PAIRS:
        for sigma in (-1.0, 1.0):
            a = (target[k] + sigma * target[l]) / 2.0
            c = target[m] if np.cos(target[k] - sigma * target[l]) >= 0.0 else target[m] - np.pi / 2
            image = np.empty(3)
            image[k], image[l], image[m] = a, sigma * a, c
            images.append(image)
            angles.append((2.0 * a, -4.0 * sigma * c))
    return np.array(images), angles


def closed_form_fidelity(
    target: np.ndarray, gate: Optional[np.ndarray], family: Optional[str], num_layers: int
) -> Optional[float]:
    """Best ``F_d`` of ``num_layers`` layers from Weyl coordinates, if known.

    ``target`` and ``gate`` are chamber coordinates (``gate`` is ``None``
    for a continuous ``family``).  Zero layers, and one layer of a family
    or of a gate that is its own mirror image, have closed forms (the
    largest ``trace(t - p)`` over the images ``p``); other counts return
    ``None``.
    """
    if num_layers == 0:
        return float(_trace_fidelity(target))
    if num_layers == 1 and (family is not None or _mirror_symmetric(gate)):
        images, _ = _one_layer_images(target, gate, family)
        return float(_trace_fidelity(target - images).max())
    return None


# ---------------------------------------------------------------------------
# Which counts are built
# ---------------------------------------------------------------------------
#
# The closed-form counts, and deeper ones of the gate classes below.

_KIND_POINTS = {
    "cz": np.array([np.pi / 4, 0.0, 0.0]),
    "iswap": np.array([np.pi / 4, np.pi / 4, 0.0]),
    "sqrt_iswap": np.array([np.pi / 8, np.pi / 8, 0.0]),
}

_FAMILY_GATES = {"xy": xy, "fsim": fsim}
_FAMILY_SQRT_ISWAP = {"xy": (np.pi / 2,), "fsim": (np.pi / 4, 0.0)}
"""Family angles of the sqrt(iSWAP)-class gate deeper FullXY / FullfSim layers use."""


def _mirror_symmetric(gate_point: np.ndarray) -> bool:
    """Whether a chamber point is locally equivalent to its mirror image."""
    return abs(gate_point[2]) < 1e-9 or abs(gate_point[0] - np.pi / 4) < 1e-9


def gate_kind(gate_point: Optional[np.ndarray]) -> Optional[str]:
    """``"cz"``, ``"iswap"`` or ``"sqrt_iswap"`` for a gate of that class, else ``None``."""
    if gate_point is not None:
        for kind, point in _KIND_POINTS.items():
            if np.abs(gate_point - point).max() < 1e-9:
                return kind
    return None


def in_sqrt_iswap_region(point: np.ndarray) -> bool:
    """Whether two sqrt(iSWAP) gates reach the chamber point: ``x >= y + |z|``."""
    x, y, z = point
    return x >= y + abs(z) - 1e-9


def synthesises(
    target: np.ndarray, gate: Optional[np.ndarray], family: Optional[str], num_layers: int
) -> bool:
    """Whether :func:`synthesise` builds this count (chamber points as in
    :func:`closed_form_fidelity`).

    Two sqrt(iSWAP)-class layers of a *fixed* gate stay with the
    optimiser: building them moves which layer counts the design study
    picks.
    """
    if num_layers == 0:
        return True
    if num_layers == 1:
        return family is not None or _mirror_symmetric(gate)
    kind = "sqrt_iswap" if family is not None else gate_kind(gate)
    if kind in ("cz", "iswap"):
        return num_layers in (2, 3)
    if kind == "sqrt_iswap":
        if num_layers == 3:
            return _sqrt_iswap_split(target) is not None
        return num_layers == 2 and family is not None and in_sqrt_iswap_region(target)
    return False


# ---------------------------------------------------------------------------
# Middles: single-qubit layers between copies of the canonical gate
# ---------------------------------------------------------------------------


def _rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """``exp(i angle P)`` for a Pauli matrix ``P``."""
    return np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * pauli


def _cz_middles(point: np.ndarray, num_layers: int) -> List[Pair]:
    """Middles ``M_j`` (first-applied first) putting ``A M_1 A [M_2 A]`` at ``point``.

    ``A = A(pi/4, 0, 0) = exp(i pi/4 XX)``.  Two layers: ``A`` conjugates
    ``ZI`` to ``YX`` and ``IZ`` to ``XY``, so ``A (e^{ixZ} (x) e^{iyZ})
    A^dagger = exp(i (x YX + y XY))``, locally ``A(x, y, 0)``, and the
    second ``A`` differs from ``A^dagger`` by the local ``i XX``.  Three
    layers: the Vatan-Williams three-CNOT circuit with each CNOT written
    as ``A`` between single-qubit factors that commute with it.
    """
    x, y, z = point
    X, Y, Z, H = standard.X, standard.Y, standard.Z, standard.H
    if num_layers == 2:
        return [(_rotation(Z, x), _rotation(Z, y))]
    quarter = np.pi / 4
    return [
        (H @ _rotation(X, -quarter), _rotation(Y, y - quarter) @ _rotation(Z, -quarter) @ H),
        (_rotation(Z, z - 2 * quarter) @ H, H @ _rotation(Y, quarter - x) @ _rotation(X, -quarter)),
    ]


def _iswap_middles(point: np.ndarray, num_layers: int) -> List[Pair]:
    """:func:`_cz_middles` for ``A = A(pi/4, pi/4, 0)``.

    ``A(pi/4, pi/4, 0) = e^{i pi/4} SWAP C`` with ``C = exp(-i pi/4 ZZ)``
    of the CZ class, and ``C = W exp(i pi/4 XX) W^dagger`` with ``W = XH
    (x) H``.  SWAPs commute past single-qubit layers by exchanging their
    qubits, so ``L`` iSWAP layers are ``SWAP^L`` times ``L`` layers of
    ``C`` whose first (third, ...) middle has its qubits exchanged.  ``SWAP`` is
    ``A(pi/4, pi/4, pi/4)`` up to phase, so three layers must reach
    ``point - (pi/4, pi/4, pi/4)`` with ``C``.
    """
    if num_layers == 3:
        point = point - np.pi / 4
    frame = (standard.X @ standard.H, standard.H)
    middles = []
    for index, pair in enumerate(_cz_middles(point, num_layers)):
        a, b = (w @ m @ w.conj().T for w, m in zip(frame, pair))
        middles.append((b, a) if index % 2 == 0 else (a, b))
    return middles


def _sqrt_iswap_middle(point: np.ndarray) -> Pair:
    """Middle ``M`` with ``S M S`` locally ``A(point)``, ``S = A(pi/8, pi/8, 0)``.

    For ``point`` in ``x >= y + |z|``, ``M = R_X(alpha) (x) R_Z(gamma)
    R_X(beta) R_Z(gamma)`` with ``R_P(angle) = exp(-i angle P / 2)``: matching the trace and second invariant of
    ``gamma(S M S)`` with those of ``A(point)`` gives ``cos alpha, cos
    beta = (cos 2x - cos 2y + cos 2z) +- sqrt(K) / 2``, ``K = 2 + 2 (cos 4x
    + cos 4y + cos 4z) - 8 cos 2x cos 2y cos 2z``, and ``sin^2 gamma = 4
    cos 2x cos 2y cos 2z / ((1 + cos alpha)(1 + cos beta))``, with ``cos
    gamma`` of the sign of ``z``.  Near the identity those differences
    cancel, so they are rewritten in ``s_u = sin^2 u``: with ``D = s_x -
    s_y + s_z`` and ``Q = K / 16 = (s_x - s_y - s_z)^2 - 4 s_y s_z + 4
    s_x s_y s_z``, ``sin^2(beta/2) = D + sqrt(Q)``, ``sin^2(alpha/2) =
    (D^2 - Q) / (D + sqrt(Q)) = 4 s_x s_z cos^2 y / (D + sqrt(Q))`` and
    ``tan gamma = sqrt(cos 2x cos 2y cos 2z) / (2 sin y cos x cos z)``
    (``gamma`` is free where both vanish).
    """
    x, y, z = point
    sx, sy, sz = np.sin(np.array([x, y, z])) ** 2
    d = sx - sy + sz
    root = np.sqrt(max((sx - sy - sz) ** 2 - 4.0 * sy * sz + 4.0 * sx * sy * sz, 0.0))
    alpha_sin2 = 4.0 * sx * sz * (1.0 - sy) / (d + root) if d + root > 0.0 else 0.0
    beta_sin2 = min(d + root, 1.0)

    def half_x_rotation(sin_squared_half: float) -> np.ndarray:
        # R_X(angle) = exp(-i angle/2 X), from sin^2(angle / 2).
        half = np.arctan2(np.sqrt(sin_squared_half), np.sqrt(1.0 - sin_squared_half))
        return _rotation(standard.X, -half)

    product = max(np.cos(2 * x) * np.cos(2 * y) * np.cos(2 * z), 0.0)
    adjacent = 2.0 * np.sin(y) * np.cos(x) * np.cos(z)
    gamma = np.arctan2(np.sqrt(product), adjacent if z >= 0.0 else -adjacent)
    outer = _rotation(standard.Z, -gamma / 2.0)
    return half_x_rotation(alpha_sin2), outer @ half_x_rotation(beta_sin2) @ outer


_SQRT_ISWAP_IMAGES = [
    np.array(image)
    for zero in range(3)
    for image in itertools.product(*[
        (0.0,) if axis == zero else (np.pi / 8, -np.pi / 8) for axis in range(3)
    ])
]
"""The 12 signed placements of ``(pi/8, pi/8, 0)``, each locally ``A(pi/8, pi/8, 0)``."""


def _sqrt_iswap_split(point: np.ndarray) -> Optional[np.ndarray]:
    """First placement ``g'`` whose remainder ``point - g'`` two gates reach.

    ``A(point) = A(point - g') A(g')``, so three sqrt(iSWAP) gates reach
    ``point`` through any placement whose remainder has its chamber point
    in ``x >= y + |z|``.  Three gates reach the whole chamber (Huang et
    al., arXiv:2105.06074), but that the 12 placements cover it
    is only checked numerically (a 61-step grid over the chamber and
    20,000 random points, the identity on the region's edge), so a point
    without one gets ``None`` and its count goes to the optimiser.
    """
    return next(
        (p for p in _SQRT_ISWAP_IMAGES if in_sqrt_iswap_region(chamber_point(point - p))),
        None,
    )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _dagger(u: np.ndarray) -> np.ndarray:
    return u.conj().T


def _daggers(pair: Pair) -> Pair:
    return _dagger(pair[0]), _dagger(pair[1])


def _frame(canonical: np.ndarray, middles: Sequence[Pair]) -> Tuple[Pair, Pair]:
    """``(E_L, E_0)`` with ``E_L (S M ... S) E_0 = A(q)`` up to phase, ``q`` the product's chamber point."""
    product = canonical
    for a, b in middles:
        product = canonical @ np.kron(a, b) @ product
    frame = kak_decomposition(product)
    return _daggers(frame.left), _daggers(frame.right)


def _u3_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """``(alpha, beta, lam)`` of a U3 equal to a 2x2 unitary up to phase.

    In the convention of :func:`repro.core.templates._batched_u3`,
    ``e^{i delta} [[c, -e^{i lam} s], [e^{i beta} s, e^{i (beta + lam)} c]]``.
    Phases are read off the larger pair of entries (``beta + lam`` from
    the diagonal when ``c >= s``), so an angle read off a vanishing entry
    only ever multiplies that entry's vanishing magnitude.
    """
    (m00, m01), (m10, m11) = matrix
    delta = np.angle(m00)
    lam = np.angle(-m01) - delta
    if abs(m00) >= abs(m10):
        beta = np.angle(m11) - delta - lam
    else:
        beta = np.angle(m10) - delta
    return 2.0 * float(np.arctan2(abs(m10), abs(m00))), float(beta), float(lam)


def _assemble(
    goal: KakDecomposition,
    gate: Optional[KakDecomposition],
    left: Optional[Pair],
    middles: Sequence[Pair],
    right: Optional[Pair],
) -> np.ndarray:
    """U3 angles ``(L + 1, 2, 3)`` of ``(a1 (x) b1) E_L S M ... S E_0 (a2 (x) b2)``.

    With ``T = t (a1 (x) b1) A(t) (a2 (x) b2)`` the target and ``G = g
    (g1 (x) h1) S (g2 (x) h2)`` the gate, ``S = (g1 (x) h1)^dagger G (g2
    (x) h2)^dagger`` up to phase, so the layers are ``g2^dagger E_0 a2``
    first, ``g2^dagger M_j g1^dagger`` between gates and ``a1 E_L
    g1^dagger`` last (likewise on the second qubit).  Without a gate the
    single layer is ``a1 a2``.
    """
    columns = []
    for qubit in (0, 1):
        a1, a2 = goal.left[qubit], goal.right[qubit]
        if gate is None:
            columns.append([a1 @ a2])
            continue
        g1, g2 = _dagger(gate.left[qubit]), _dagger(gate.right[qubit])
        column = [g2 @ right[qubit] @ a2]
        column += [g2 @ middle[qubit] @ g1 for middle in middles]
        column.append(a1 @ left[qubit] @ g1)
        columns.append(column)
    return np.array([[_u3_angles(u) for u in layer] for layer in zip(*columns)])


def synthesise(target: np.ndarray, template: TemplateSpec) -> Tuple[float, np.ndarray]:
    """``F_d`` and flat parameters of the best ``template`` circuit for ``target``.

    Only for counts :func:`synthesises` accepts.  ``F_d`` is measured on
    the template's unitary.
    """
    target = np.asarray(target, dtype=complex)
    goal = memoised_kak(target)
    t = goal.point
    num_layers, family = template.num_layers, template.two_qubit_family
    family = None if family == "fixed" else family
    angles: Tuple[float, ...] = ()
    gate = left = right = None
    middles: List[Pair] = []
    if num_layers == 1:
        gate = None if family else memoised_kak(template.fixed_gate_matrix)
        images, image_angles = _one_layer_images(t, None if family else gate.point, family)
        best = int(np.argmax(_trace_fidelity(t - images)))
        angles = image_angles[best]
        if family:
            gate = memoised_kak(_FAMILY_GATES[family](*angles))
        image = memoised_kak(canonical_unitary(images[best]))
        left, right = image.left, image.right
    elif num_layers > 1:
        if family:
            angles = _FAMILY_SQRT_ISWAP[family] * num_layers
            gate = memoised_kak(_FAMILY_GATES[family](*_FAMILY_SQRT_ISWAP[family]))
            kind = "sqrt_iswap"
        else:
            gate = memoised_kak(template.fixed_gate_matrix)
            kind = gate_kind(gate.point)
        canonical = canonical_unitary(gate.point)
        if kind == "cz" or kind == "iswap":
            point = t if num_layers == 3 else t * np.array([1.0, 1.0, 0.0])
            middles = (_cz_middles if kind == "cz" else _iswap_middles)(point, num_layers)
            left, right = _frame(canonical, middles)
        elif num_layers == 2:
            middles = [_sqrt_iswap_middle(t)]
            left, right = _frame(canonical, middles)
        else:
            # A(t) = A(t - g') A(g'), two gates reaching the remainder.
            image = _sqrt_iswap_split(t)
            remainder = kak_decomposition(canonical_unitary(t - image))
            middle = _sqrt_iswap_middle(remainder.point)
            two_left, two_right = _frame(canonical, [middle])
            first = memoised_kak(canonical_unitary(image))
            middles = [
                tuple(m @ r @ f for m, r, f in zip(two_right, remainder.right, first.left)),
                middle,
            ]
            left = tuple(r @ m for r, m in zip(remainder.left, two_left))
            right = first.right
    single = _assemble(goal, gate, left, middles, right)
    params = np.concatenate([single.ravel(), np.asarray(angles, dtype=float)])
    return float(abs(np.vdot(template.unitary(params), target))) / 4.0, params
