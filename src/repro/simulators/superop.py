"""Fused superoperator simulation kernels.

The reference replay kernels (:func:`~repro.simulators.density_matrix.apply_program_to_density_matrix`,
:func:`~repro.simulators.trajectory.apply_program_to_states`) pay one
``tensordot`` + ``transpose`` pair per Kraus operator per branch: a
two-qubit gate followed by its 16-operator depolarizing channel and two
thermal-relaxation channels costs ~40 numpy dispatches on the density
matrix.  Density-matrix packages such as ``quantumsim`` (and Cirq's
``kraus_to_superoperator`` machinery) avoid that by lowering noise to
*superoperators* -- linear maps on vectorised density matrices -- and
applying each one in a single contraction.  This module is that lowering
for :class:`~repro.simulators.noise_program.NoiseProgram`:

* **Density-matrix path** -- :func:`lower_noise_program` derives a
  :class:`SuperopProgram`: per operation, the gate conjugation
  ``U . rho . U^dagger`` composed with every trailing Kraus channel on the
  operation's qubit support into one ``4^k x 4^k`` superoperator; a
  moment's idle channels become per-qubit ``4 x 4`` superoperators; and
  runs of adjacent same-qubit(s) superoperators are merged across moment
  boundaries (superoperators on disjoint qubits commute, so folding a
  group into the *last* group that touched the same qubits is exact).
  :func:`apply_superop_program` replays the result as **one**
  ``tensordot`` + ``transpose`` per fused group over the ``(2,) * 2n``
  rho tensor, with all axis-permutation plans precomputed at lowering
  time (no ``list.index`` loops per application).

* **Trajectory path** -- pure states cannot absorb a channel into a
  single linear map (branch selection is stochastic), so
  :func:`trajectory_plan_for` instead pre-stacks every channel into a
  contiguous ``(m, 2^k, 2^k)`` operator array with cached
  reshape/transpose plans: all ``m`` candidate branches of a channel are
  produced by one ``tensordot`` instead of ``m``, and the per-call
  rebuilding of qubit lists, gate reshapes and inverse permutations that
  :func:`~repro.simulators.trajectory._apply_channel_batch` used to do is
  gone.  RNG consumption order is identical to the reference kernel (one
  bulk draw per stochastic channel, in program order).

Fused results are numerically equal but **not bit-identical** to the
sequential reference loops (float reassociation inside the composed
superoperators); the policy lives in :mod:`repro.simulators.backend`:
``REPRO_SIM_KERNEL=reference`` selects the pinned bit-identical replay,
the default ``fused`` kernel is held to ``<= 1e-10`` max-abs deviation by
``tests/test_superop.py`` and ``benchmarks/test_bench_superop_kernel.py``.

Lowered artefacts are derived lazily per :class:`NoiseProgram` and cached
on the program instance itself (programs are immutable and process-wide
cached, so the lowering cost is paid once per distinct compiled circuit
-- and rides along when programs are pickled to worker pools).

Batched replay extends the single-rho kernels:
:func:`apply_superop_program_batch` applies one program (or a
:func:`batch_superop_programs` stack of structure-identical programs, e.g.
an error-scale sweep's B noise programs over one compiled circuit) to a
``(B, 2^n, 2^n)`` stack of density matrices in one vectorised pass per
fused group: a batched ``matmul`` of the ``(B, 4^k, 4^k)`` stacked group
tensors against the ``(B, 4^k, 4^{n-k})`` rho views, with the batch
axis-permutation plans precomputed at lowering time.  Per item the GEMM
operands and shapes equal the sequential :func:`apply_superop_program`
contraction, so batched results track per-job fused replay to ``<= 1e-10``
(``tests/test_batched_replay.py`` pins it).  The
``REPRO_SIM_BATCH_MAX_BYTES`` cap (:func:`max_batch_items`) bounds the
``B x 4^n`` working set the same warn-and-default way the other env knobs
are parsed, and :func:`batched_replay_stats` counts the passes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import positive_int_env
from repro.simulators.noise import KrausChannel
from repro.simulators.noise_program import NoiseProgram

# ---------------------------------------------------------------------------
# Superoperator algebra (row-major vec convention: vec(rho)[r*d + c] = rho[r,c])
# ---------------------------------------------------------------------------


def unitary_superoperator(matrix: np.ndarray) -> np.ndarray:
    """Superoperator of the conjugation ``rho -> U . rho . U^dagger``.

    In the row-major vec convention ``vec(A X B) = (A kron B^T) vec(X)``,
    so the conjugation by ``U`` is ``U kron conj(U)``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    return np.kron(matrix, matrix.conj())


def kraus_to_superoperator(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator ``sum_k K_k kron conj(K_k)`` of a Kraus channel."""
    operators = [np.asarray(op, dtype=complex) for op in operators]
    dim = operators[0].shape[0]
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in operators:
        superop += np.kron(op, op.conj())
    return superop


def channel_superoperator(channel: KrausChannel) -> np.ndarray:
    """Superoperator of a :class:`KrausChannel`."""
    return kraus_to_superoperator(channel.operators)


def superoperator_to_choi(superop: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator (same vec convention).

    With ``S[(a,b),(i,j)] = sum_k K[a,i] conj(K[b,j])`` the Choi matrix is
    the index regrouping ``J[(i,a),(j,b)] = S[(a,b),(i,j)]``; the channel
    is completely positive iff ``J`` is positive semidefinite, and trace
    preserving iff the partial trace of ``J`` over the output factor is
    the identity.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    tensor = superop.reshape(dim, dim, dim, dim)  # [a, b, i, j]
    return tensor.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim)


def is_cptp_superoperator(
    superop: np.ndarray, atol: float = 1e-9
) -> Tuple[bool, bool]:
    """``(completely_positive, trace_preserving)`` of a superoperator."""
    choi = superoperator_to_choi(superop)
    eigenvalues = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    completely_positive = bool(eigenvalues.min() >= -atol)
    dim = int(round(np.sqrt(superop.shape[0])))
    partial = np.einsum("iaja->ij", choi.reshape(dim, dim, dim, dim))
    trace_preserving = bool(np.allclose(partial, np.eye(dim), atol=atol))
    return completely_positive, trace_preserving


def _embed_matrix(
    matrix: np.ndarray, positions: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed an operator acting on tensor ``positions`` of a wider register."""
    positions = list(positions)
    j = len(positions)
    if j == num_qubits and positions == list(range(num_qubits)):
        return np.asarray(matrix, dtype=complex)
    rest = [p for p in range(num_qubits) if p not in positions]
    full = np.kron(
        np.asarray(matrix, dtype=complex), np.eye(2 ** (num_qubits - j), dtype=complex)
    )
    # `full` acts on qubit order positions + rest; permute axes back to 0..k-1.
    order = positions + rest
    perm = [order.index(p) for p in range(num_qubits)]
    tensor = full.reshape((2,) * (2 * num_qubits))
    tensor = np.transpose(tensor, perm + [num_qubits + axis for axis in perm])
    dim = 2**num_qubits
    return np.ascontiguousarray(tensor.reshape(dim, dim))


# ---------------------------------------------------------------------------
# Density-matrix lowering: the SuperopProgram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedGroup:
    """One fused superoperator plus its precomputed application plan."""

    qubits: Tuple[int, ...]
    superoperator: np.ndarray
    """The ``4^k x 4^k`` map (kept for inspection/property tests)."""
    tensor: np.ndarray
    """``superoperator`` reshaped to ``(2,) * 4k``, C-contiguous."""
    input_axes: Tuple[int, ...]
    """Tensor axes of :attr:`tensor` to contract (the vec-input axes)."""
    rho_axes: Tuple[int, ...]
    """Axes of the ``(2,) * 2n`` rho tensor to contract against."""
    inverse: Tuple[int, ...]
    """Axis permutation restoring canonical rho axis order afterwards."""
    batch_forward: Tuple[int, ...]
    """Permutation moving this group's axes to the front of a batched
    ``(B,) + (2,) * 2n`` rho stack (batch axis stays first)."""
    batch_restore: Tuple[int, ...]
    """Inverse of :attr:`batch_forward` composed with the group
    application's axis layout: restores ``(B,) + canonical`` order."""


@dataclass(frozen=True)
class SuperopProgram:
    """A noise program lowered to fused superoperator groups."""

    num_qubits: int
    groups: Tuple[FusedGroup, ...]
    source_applications: int
    """Matrix applications the reference kernel would dispatch for the
    same program (gate conjugations count 2, each Kraus operator 2) --
    the denominator of the fusion ratio reported by benchmarks."""

    def num_groups(self) -> int:
        """Fused contractions per replay (one tensordot+transpose each)."""
        return len(self.groups)


class _PendingGroup:
    """Mutable accumulator for one fused group during lowering."""

    __slots__ = ("qubits", "matrix")

    def __init__(self, qubits: Tuple[int, ...], matrix: np.ndarray):
        self.qubits = qubits
        self.matrix = matrix


def _finalise_group(pending: _PendingGroup, num_qubits: int) -> FusedGroup:
    """Precompute the contraction plan of one fused group."""
    qubits = pending.qubits
    k = len(qubits)
    tensor = np.ascontiguousarray(pending.matrix.reshape((2,) * (4 * k)))
    rho_axes = tuple(qubits) + tuple(num_qubits + q for q in qubits)
    rest = [axis for axis in range(2 * num_qubits) if axis not in rho_axes]
    current = list(rho_axes) + rest
    position = {axis: index for index, axis in enumerate(current)}
    inverse = tuple(position[axis] for axis in range(2 * num_qubits))
    return FusedGroup(
        qubits=qubits,
        superoperator=pending.matrix,
        tensor=tensor,
        input_axes=tuple(range(2 * k, 4 * k)),
        rho_axes=rho_axes,
        inverse=inverse,
        batch_forward=(0,) + tuple(axis + 1 for axis in current),
        batch_restore=(0,) + tuple(index + 1 for index in inverse),
    )


def lower_noise_program(program: NoiseProgram) -> SuperopProgram:
    """Lower a noise program into fused superoperator groups.

    Per operation the gate conjugation and every trailing channel whose
    support lies inside the operation's qubits are composed into a single
    superoperator (channels on other supports -- none are produced by the
    current :class:`~repro.simulators.noise_model.NoiseModel`, but the
    lowering stays general -- are emitted as their own groups, in order).
    Idle channels become per-qubit groups.  A new group whose qubit tuple
    equals that of the *last* group touching those qubits is folded into
    it by matrix product: every group in between acts on disjoint qubits
    and therefore commutes, so the fold is exact, and runs of adjacent
    single-qubit superoperators collapse across moment boundaries.
    """
    n = program.num_qubits
    pending: List[_PendingGroup] = []
    last_touch: Dict[int, int] = {}
    source_applications = 0
    # Channels are shared objects (memoised constructors), so each one's
    # (embedded) superoperator is derived once per call, keyed by id: the
    # program keeps every channel alive for the whole call.  The cached
    # arrays are read-only because fused groups may share them.
    superops: Dict[Tuple[int, Tuple[int, ...], int], np.ndarray] = {}

    def superop_of(
        channel: KrausChannel,
        positions: Optional[Tuple[int, ...]] = None,
        k: Optional[int] = None,
    ) -> np.ndarray:
        """``channel`` embedded at ``positions`` of a ``k``-qubit support
        (default: on its own qubits)."""
        if positions is None:
            k = channel.num_qubits
            positions = tuple(range(k))
        key = (id(channel), positions, k)
        superop = superops.get(key)
        if superop is None:
            embedded = [_embed_matrix(op, positions, k) for op in channel.operators]
            superop = kraus_to_superoperator(embedded)
            superop.setflags(write=False)
            superops[key] = superop
        return superop

    def emit(qubits: Tuple[int, ...], matrix: np.ndarray) -> None:
        indices = {last_touch.get(q) for q in qubits}
        if len(indices) == 1:
            (index,) = indices
            if index is not None and pending[index].qubits == qubits:
                pending[index].matrix = matrix @ pending[index].matrix
                return
        index = len(pending)
        pending.append(_PendingGroup(qubits, matrix))
        for q in qubits:
            last_touch[q] = index

    for moment in program.moments:
        for operation in moment.operations:
            qubits = tuple(operation.qubits)
            k = len(qubits)
            support = set(qubits)
            matrix = unitary_superoperator(operation.matrix)
            source_applications += 2
            accumulated = True  # the gate itself is always in `matrix`
            for channel, channel_qubits in operation.channels:
                source_applications += 2 * len(channel.operators)
                if set(channel_qubits) <= support:
                    positions = tuple(qubits.index(q) for q in channel_qubits)
                    matrix = superop_of(channel, positions, k) @ matrix
                    accumulated = True
                else:
                    if accumulated:
                        emit(qubits, matrix)
                        matrix = np.eye(4**k, dtype=complex)
                        accumulated = False
                    emit(tuple(channel_qubits), superop_of(channel))
            if accumulated:
                emit(qubits, matrix)
        for channel, channel_qubits in moment.idle_channels:
            source_applications += 2 * len(channel.operators)
            emit(tuple(channel_qubits), superop_of(channel))

    groups = tuple(_finalise_group(p, n) for p in pending)
    return SuperopProgram(
        num_qubits=n, groups=groups, source_applications=source_applications
    )


def apply_superop_program(superop_program: SuperopProgram, rho: np.ndarray) -> np.ndarray:
    """Replay a lowered program on a density matrix: one contraction per group."""
    n = superop_program.num_qubits
    tensor = np.reshape(np.asarray(rho, dtype=complex), (2,) * (2 * n))
    for group in superop_program.groups:
        tensor = np.tensordot(group.tensor, tensor, axes=(group.input_axes, group.rho_axes))
        tensor = np.transpose(tensor, group.inverse)
    dim = 2**n
    return np.reshape(tensor, (dim, dim))


# ---------------------------------------------------------------------------
# Batched replay: one vectorised pass over a (B, 2^n, 2^n) rho stack
# ---------------------------------------------------------------------------

SIM_BATCH_MAX_BYTES_ENV_VAR = "REPRO_SIM_BATCH_MAX_BYTES"
"""Environment variable capping the batched-replay working set (bytes)."""

DEFAULT_SIM_BATCH_MAX_BYTES = 256 * 1024 * 1024
"""Default working-set cap (256 MiB): at the ``MAX_DENSITY_MATRIX_QUBITS``
width of 12 qubits one density matrix is ``16 * 4^12`` = 256 MiB, so the
default admits batching only where it is safe, and hundreds of items at
the 4-6 qubit benchmark widths."""


def sim_batch_max_bytes() -> int:
    """The batched-replay working-set cap, re-read from the environment.

    Parsed with the shared warn-and-default policy
    (:func:`repro.config.positive_int_env`): unset means the 256 MiB
    default, invalid values warn and use the default.
    """
    return positive_int_env(SIM_BATCH_MAX_BYTES_ENV_VAR, DEFAULT_SIM_BATCH_MAX_BYTES)


def max_batch_items(num_qubits: int, batch_option: int = 0) -> int:
    """Largest batch size the memory cap (and the ``batch`` knob) admits.

    Working-set model: each batch item carries an input and an output
    ``2^n x 2^n`` complex128 density matrix through a vectorised pass
    (``2 * 16 * 4^n`` bytes; the per-group stacked operator tensors are
    ``B * 16^k`` and dominated by the rho stack for every fused group the
    lowering emits).  ``batch_option`` follows
    :class:`~repro.experiments.runner.SimulationOptions.batch` semantics:
    ``0`` means cap-only, values ``>= 2`` additionally bound the group
    size.  Never returns less than 1.
    """
    per_item = 2 * 16 * (4**num_qubits)
    limit = max(1, sim_batch_max_bytes() // per_item)
    if batch_option and int(batch_option) > 1:
        limit = min(limit, int(batch_option))
    return int(limit)


@dataclass(frozen=True)
class BatchedFusedGroup:
    """One fused group of B structure-identical programs, stacked."""

    qubits: Tuple[int, ...]
    stacked: np.ndarray
    """The B group superoperators as one ``(B, 4^k, 4^k)`` tensor."""
    batch_forward: Tuple[int, ...]
    batch_restore: Tuple[int, ...]


@dataclass(frozen=True)
class SuperopProgramBatch:
    """B structure-identical superoperator programs, stacked per group.

    The error-scale sweep artefact: the same compiled circuit lowered
    against B noise strengths yields programs whose fused groups share
    supports and order but differ in channel tensors.  Stacking each
    group into ``(B, 4^k, 4^k)`` lets one batched ``matmul`` per group
    replay all B simulations at once.
    """

    num_qubits: int
    batch_size: int
    groups: Tuple[BatchedFusedGroup, ...]


def superop_structure_key(superop_program: SuperopProgram) -> Tuple:
    """The fused-group *structure* of a program: width plus group supports.

    Two programs with equal structure keys differ at most in their
    channel tensors, which is exactly the condition under which
    :func:`batch_superop_programs` can stack them.  Cheap (no array
    hashing) because batch grouping runs per prepared job.
    """
    return (superop_program.num_qubits,) + tuple(
        group.qubits for group in superop_program.groups
    )


def batch_superop_programs(
    programs: Sequence[SuperopProgram],
) -> SuperopProgramBatch:
    """Stack structure-identical programs for one vectorised replay.

    Raises ``ValueError`` when the programs' fused-group structures
    differ (the grouping layer in :mod:`repro.experiments.engine` keys on
    :func:`superop_structure_key` precisely so this never fires in
    production -- it guards direct callers).
    """
    if not programs:
        raise ValueError("cannot batch an empty program sequence")
    first = programs[0]
    key = superop_structure_key(first)
    for program in programs[1:]:
        if superop_structure_key(program) != key:
            raise ValueError(
                "superoperator programs have mismatched fused-group structure "
                "and cannot be stacked into one batch"
            )
    groups = []
    for index, template in enumerate(first.groups):
        stacked = np.ascontiguousarray(
            np.stack([program.groups[index].superoperator for program in programs])
        )
        groups.append(
            BatchedFusedGroup(
                qubits=template.qubits,
                stacked=stacked,
                batch_forward=template.batch_forward,
                batch_restore=template.batch_restore,
            )
        )
    return SuperopProgramBatch(
        num_qubits=first.num_qubits, batch_size=len(programs), groups=tuple(groups)
    )


_BATCH_STATS = {"batched_passes": 0, "batched_items": 0}
_BATCH_STATS_LOCK = threading.Lock()


def batched_replay_stats() -> Dict[str, int]:
    """Batched-replay counters since the last reset.

    ``batched_passes`` counts vectorised :func:`apply_superop_program_batch`
    passes; ``batched_items`` the density matrices they carried (so
    ``items / passes`` is the realised mean batch size).  Surfaced by
    ``repro cache stats`` and the service ``/v1/stats`` payload.
    """
    with _BATCH_STATS_LOCK:
        return dict(_BATCH_STATS)


def reset_batched_replay_stats() -> None:
    """Zero the batched-replay counters (tests/benchmarks)."""
    with _BATCH_STATS_LOCK:
        _BATCH_STATS.update(batched_passes=0, batched_items=0)


def apply_superop_program_batch(
    program_batch_or_program: Union[SuperopProgram, SuperopProgramBatch],
    rhos: np.ndarray,
) -> np.ndarray:
    """Replay on a ``(B, 2^n, 2^n)`` stack: one vectorised pass per group.

    Accepts either a :class:`SuperopProgramBatch` (per-item group
    tensors -- the error-scale sweep case) or a single
    :class:`SuperopProgram` applied to every item (identical program,
    B initial states).  Per group the batched contraction is a
    ``matmul`` of the ``(B, 4^k, 4^k)`` (or broadcast ``(4^k, 4^k)``)
    operator stack against the ``(B, 4^k, 4^{n-k})`` rho views, with the
    batch axis permutations precomputed at lowering time -- per item the
    GEMM operands equal the sequential :func:`apply_superop_program`
    contraction, which is what keeps batched results within ``1e-10`` of
    per-job fused replay.  Counts one pass of ``B`` items in
    :func:`batched_replay_stats`.
    """
    num_qubits = program_batch_or_program.num_qubits
    groups = program_batch_or_program.groups
    if isinstance(program_batch_or_program, SuperopProgram):
        operators = [group.superoperator for group in groups]
    else:
        operators = [group.stacked for group in groups]
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2] or rhos.shape[1] != 2**num_qubits:
        raise ValueError(
            f"expected a (B, {2**num_qubits}, {2**num_qubits}) density-matrix "
            f"stack, got shape {rhos.shape}"
        )
    batch = rhos.shape[0]
    if (
        isinstance(program_batch_or_program, SuperopProgramBatch)
        and batch != program_batch_or_program.batch_size
    ):
        raise ValueError(
            f"rho stack carries {batch} items but the program batch carries "
            f"{program_batch_or_program.batch_size}"
        )
    permuted_shape = (batch,) + (2,) * (2 * num_qubits)
    tensor = np.reshape(rhos, permuted_shape)
    for group, operator in zip(groups, operators):
        k = len(group.qubits)
        view = np.transpose(tensor, group.batch_forward)
        view = np.reshape(view, (batch, 4**k, 4 ** (num_qubits - k)))
        out = np.reshape(np.matmul(operator, view), permuted_shape)
        tensor = np.transpose(out, group.batch_restore)
    with _BATCH_STATS_LOCK:
        _BATCH_STATS["batched_passes"] += 1
        _BATCH_STATS["batched_items"] += batch
    dim = 2**num_qubits
    return np.reshape(tensor, (batch, dim, dim))


# ---------------------------------------------------------------------------
# Trajectory lowering: pre-stacked channel plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelPlan:
    """One channel (or gate) of a program, pre-stacked for replay.

    A unitary gate is the ``num_branches == 1`` case: it is applied
    deterministically and consumes no randomness, exactly like the
    reference kernel's single-operator fast path.
    """

    qubits: Tuple[int, ...]
    num_branches: int
    stacked: np.ndarray
    """All branch operators as one contiguous ``(m,) + (2,) * 2k`` tensor."""
    operator_input_axes: Tuple[int, ...]
    """Input axes of one ``(2,) * 2k`` operator tensor (``k .. 2k``)."""
    stacked_input_axes: Tuple[int, ...]
    """Input axes of :attr:`stacked` (shifted by the branch axis)."""
    state_axes: Tuple[int, ...]
    """Qubit axes of a single ``(2,) * n`` state tensor."""
    batch_state_axes: Tuple[int, ...]
    """Qubit axes of a batched ``(T,) + (2,) * n`` state tensor."""
    single_inverse: Tuple[int, ...]
    batch_inverse: Tuple[int, ...]
    stacked_single_inverse: Tuple[int, ...]
    stacked_batch_inverse: Tuple[int, ...]


@dataclass(frozen=True)
class TrajectoryPlan:
    """A noise program's channels pre-stacked in replay order."""

    num_qubits: int
    channel_plans: Tuple[ChannelPlan, ...]


def _channel_plan(
    operators: Sequence[np.ndarray], qubits: Tuple[int, ...], num_qubits: int
) -> ChannelPlan:
    """Precompute every contraction/permutation a channel replay needs."""
    k = len(qubits)
    m = len(operators)
    stacked = np.ascontiguousarray(
        np.stack([np.asarray(op, dtype=complex).reshape((2,) * (2 * k)) for op in operators])
    )
    rest = [q for q in range(num_qubits) if q not in qubits]

    def _inverse(current: List[object], wanted: List[object]) -> Tuple[int, ...]:
        position = {axis: index for index, axis in enumerate(current)}
        return tuple(position[axis] for axis in wanted)

    qubit_list = list(qubits)
    single_current = qubit_list + rest
    batch_current = qubit_list + ["batch"] + rest
    stacked_single_current = ["m"] + qubit_list + rest
    stacked_batch_current = ["m"] + qubit_list + ["batch"] + rest
    wanted = list(range(num_qubits))
    return ChannelPlan(
        qubits=qubits,
        num_branches=m,
        stacked=stacked,
        operator_input_axes=tuple(range(k, 2 * k)),
        stacked_input_axes=tuple(range(k + 1, 2 * k + 1)),
        state_axes=tuple(qubits),
        batch_state_axes=tuple(q + 1 for q in qubits),
        single_inverse=_inverse(single_current, wanted),
        batch_inverse=_inverse(batch_current, ["batch"] + wanted),
        stacked_single_inverse=_inverse(stacked_single_current, ["m"] + wanted),
        stacked_batch_inverse=_inverse(stacked_batch_current, ["m", "batch"] + wanted),
    )


def lower_trajectory_program(program: NoiseProgram) -> TrajectoryPlan:
    """Pre-stack every gate and channel of a program, in replay order."""
    n = program.num_qubits
    plans: List[ChannelPlan] = []
    for moment in program.moments:
        for operation in moment.operations:
            plans.append(_channel_plan([operation.matrix], tuple(operation.qubits), n))
            for channel, qubits in operation.channels:
                plans.append(_channel_plan(channel.operators, tuple(qubits), n))
        for channel, qubits in moment.idle_channels:
            plans.append(_channel_plan(channel.operators, tuple(qubits), n))
    return TrajectoryPlan(num_qubits=n, channel_plans=tuple(plans))


def _apply_operator_single(
    state_tensor: np.ndarray, plan: ChannelPlan, index: int
) -> np.ndarray:
    """Apply branch ``index`` to one ``(2,) * n`` state tensor."""
    result = np.tensordot(
        plan.stacked[index], state_tensor, axes=(plan.operator_input_axes, plan.state_axes)
    )
    return np.transpose(result, plan.single_inverse)


def _apply_operator_batch(
    states_tensor: np.ndarray, plan: ChannelPlan, index: int
) -> np.ndarray:
    """Apply branch ``index`` to a ``(T,) + (2,) * n`` state stack."""
    result = np.tensordot(
        plan.stacked[index],
        states_tensor,
        axes=(plan.operator_input_axes, plan.batch_state_axes),
    )
    return np.transpose(result, plan.batch_inverse)


def _apply_stacked_single(state_tensor: np.ndarray, plan: ChannelPlan) -> np.ndarray:
    """All ``m`` branches of one state at once; returns ``(m, 2^n)``."""
    result = np.tensordot(
        plan.stacked, state_tensor, axes=(plan.stacked_input_axes, plan.state_axes)
    )
    result = np.transpose(result, plan.stacked_single_inverse)
    return np.reshape(result, (plan.num_branches, -1))


def _apply_stacked_batch(states_tensor: np.ndarray, plan: ChannelPlan) -> np.ndarray:
    """All ``m`` branches of a ``(T,)``-stack at once; returns ``(m, T, 2^n)``."""
    result = np.tensordot(
        plan.stacked, states_tensor, axes=(plan.stacked_input_axes, plan.batch_state_axes)
    )
    result = np.transpose(result, plan.stacked_batch_inverse)
    batch = result.shape[1]
    return np.reshape(result, (plan.num_branches, batch, -1))


def apply_trajectory_plan_to_state(
    trajectory_plan: TrajectoryPlan, state: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Replay a pre-stacked plan on a single trajectory statevector.

    RNG consumption matches the reference kernel: deterministic plans
    (gates, single-operator channels) draw nothing; stochastic channels
    draw once via ``rng.choice`` over the branch weights.
    """
    n = trajectory_plan.num_qubits
    tensor = np.reshape(np.asarray(state, dtype=complex), (2,) * n)
    for plan in trajectory_plan.channel_plans:
        if plan.num_branches == 1:
            tensor = _apply_operator_single(tensor, plan, 0)
            continue
        branches = _apply_stacked_single(tensor, plan)
        weights = np.einsum("mi,mi->m", branches, branches.conj()).real
        total = weights.sum()
        if total <= 0:
            raise RuntimeError("channel produced zero total probability")
        choice = rng.choice(plan.num_branches, p=weights / total)
        branch = branches[choice]
        tensor = np.reshape(branch / np.linalg.norm(branch), (2,) * n)
    return np.reshape(tensor, (-1,))


def apply_trajectory_plan_to_states(
    trajectory_plan: TrajectoryPlan,
    states: np.ndarray,
    rng: np.random.Generator,
    branch_storage_limit: Optional[int] = None,
) -> np.ndarray:
    """Replay a pre-stacked plan on a ``(T, 2^n)`` trajectory stack.

    Stochastic channels produce all ``m`` candidate branches in a single
    stacked contraction when they fit in ``branch_storage_limit`` complex
    elements (default: the reference kernel's
    :data:`~repro.simulators.trajectory._BRANCH_STORAGE_LIMIT`); beyond
    it the chosen branches are recomputed per distinct choice, trading
    FLOPs for memory exactly like the reference kernel.  One bulk uniform
    draw per stochastic channel, in program order.
    """
    if branch_storage_limit is None:
        from repro.simulators.trajectory import _BRANCH_STORAGE_LIMIT

        branch_storage_limit = _BRANCH_STORAGE_LIMIT
    n = trajectory_plan.num_qubits
    num_trajectories = states.shape[0]
    tensor = np.reshape(np.asarray(states, dtype=complex), (num_trajectories,) + (2,) * n)
    for plan in trajectory_plan.channel_plans:
        if plan.num_branches == 1:
            tensor = _apply_operator_batch(tensor, plan, 0)
            continue
        m = plan.num_branches
        keep_branches = m * num_trajectories * 2**n <= branch_storage_limit
        branches = None
        if keep_branches:
            branches = _apply_stacked_batch(tensor, plan)
            weights = np.einsum("mti,mti->mt", branches, branches.conj()).real
        else:
            weights = np.empty((m, num_trajectories))
            for index in range(m):
                candidate = _apply_operator_batch(tensor, plan, index)
                flat = candidate.reshape(num_trajectories, -1)
                weights[index] = np.einsum("ti,ti->t", flat, flat.conj()).real
        totals = weights.sum(axis=0)
        if np.any(totals <= 0):
            raise RuntimeError("channel produced zero total probability")
        cumulative = np.cumsum(weights / totals, axis=0)
        draws = rng.random(num_trajectories)
        choices = np.minimum((draws[None, :] >= cumulative).sum(axis=0), m - 1)
        if branches is not None:
            chosen = branches[choices, np.arange(num_trajectories)]
            norms = np.sqrt(np.einsum("ti,ti->t", chosen, chosen.conj()).real)
            tensor = (chosen / norms[:, None]).reshape((num_trajectories,) + (2,) * n)
            continue
        output = np.empty((num_trajectories, 2**n), dtype=complex)
        for index in range(m):
            mask = choices == index
            if not np.any(mask):
                continue
            subset = tensor[mask]
            chosen = _apply_operator_batch(subset, plan, index).reshape(int(mask.sum()), -1)
            norms = np.sqrt(np.einsum("ti,ti->t", chosen, chosen.conj()).real)
            output[mask] = chosen / norms[:, None]
        tensor = output.reshape((num_trajectories,) + (2,) * n)
    return np.reshape(tensor, (num_trajectories, -1))


# ---------------------------------------------------------------------------
# Per-program lowering cache (stored on the NoiseProgram instance)
# ---------------------------------------------------------------------------

_LOWERING_LOCK = threading.Lock()


def superop_program_for(program: NoiseProgram) -> SuperopProgram:
    """The (lazily derived, program-cached) fused lowering of a program.

    Stored on the program instance itself: programs are immutable,
    process-wide cached (:func:`~repro.simulators.noise_program.noise_program_for`)
    and pickled by value to worker pools, so the lowering travels with
    them and is never derived twice for the same program object.
    """
    cached = program._superop
    if cached is not None:
        return cached
    lowered = lower_noise_program(program)
    with _LOWERING_LOCK:
        if program._superop is None:
            program._superop = lowered
        return program._superop


def trajectory_plan_for(program: NoiseProgram) -> TrajectoryPlan:
    """The (lazily derived, program-cached) pre-stacked trajectory plan."""
    cached = program._trajectory_plan
    if cached is not None:
        return cached
    lowered = lower_trajectory_program(program)
    with _LOWERING_LOCK:
        if program._trajectory_plan is None:
            program._trajectory_plan = lowered
        return program._trajectory_plan
