"""Tabulation smoke benchmark: Weyl-chamber lookup vs per-target BFGS.

The tabulated path answers ``decompose_for_threshold`` by nearest-grid
lookup plus a 1q-only polish instead of a fresh multi-restart BFGS per
layer count.  This benchmark runs both paths over a batch of random
SU(4) targets into CZ (the profile cache is cleared per target, so each
query pays its true cost) and asserts the contract that makes the
trade worthwhile:

1. warm tabulated synthesis needs at most a quarter of the classic
   optimiser's objective evaluations in aggregate.  Both paths spend
   their time in the same
   :meth:`repro.core.templates.TemplateSpec.objective_with_gradient`,
   so the evaluation ratio measures the work saved -- exactly and
   deterministically, without wall-clock noise;
2. it selects the same layer count and loses at most 1e-3 of
   decomposition fidelity on every target;
3. reloading the persisted table from the ``decomp`` disk namespace is
   far cheaper than building it.

Records both evaluation counts and ``baseline_s`` / ``measured_s`` wall
times (the conftest derives ``speedup``) plus the one-time build and
reload times in the ``BENCH_9.json`` artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.caching.disk import (
    configure_disk_cache,
    get_global_disk_cache,
    reset_disk_cache_configuration,
)
from repro.circuits.gate import named_gate
from repro.compiler.tabulation import (
    TabulationConfig,
    clear_table_cache,
    table_for,
)
from repro.core.decomposer import NuOpDecomposer, clear_profile_cache
from repro.core.templates import TemplateSpec
from repro.gates.unitary import random_su4

NUM_TARGETS = 8
RESOLUTION = 5  # the default grid: 45 chamber points


def test_tabulated_lookup_vs_classic(tmp_path, monkeypatch, bench_json_record):
    evaluations = [0]
    objective = TemplateSpec.objective_with_gradient

    def counted_objective(self, flat_params, target):
        evaluations[0] += 1
        return objective(self, flat_params, target)

    monkeypatch.setattr(TemplateSpec, "objective_with_gradient", counted_objective)
    cz = named_gate("cz")
    config = TabulationConfig(resolution=RESOLUTION)
    tabulated = NuOpDecomposer(seed=21, tabulation=config)
    classic = NuOpDecomposer(seed=21)
    configure_disk_cache(str(tmp_path))
    clear_table_cache()
    clear_profile_cache()
    try:
        started = time.perf_counter()
        table = table_for(tabulated, cz, None, config)  # cold: build + persist
        build_s = time.perf_counter() - started
        assert get_global_disk_cache().stats()["decomp_writes"] == 1

        clear_table_cache()
        started = time.perf_counter()
        reloaded = table_for(tabulated, cz, None, config)  # warm: disk load
        load_s = time.perf_counter() - started
        assert reloaded.spec == table.spec
        assert get_global_disk_cache().stats()["decomp_hits"] >= 1
        assert load_s < build_s / 10

        rng = np.random.default_rng(0)
        targets = [random_su4(rng) for _ in range(NUM_TARGETS)]
        baseline_s = measured_s = 0.0
        classic_evals = lookup_evals = 0
        worst_shortfall = 0.0
        for target in targets:
            clear_profile_cache()
            evaluations[0] = 0
            started = time.perf_counter()
            reference = classic.decompose_for_threshold(target, gate=cz)
            baseline_s += time.perf_counter() - started
            classic_evals += evaluations[0]

            clear_profile_cache()
            evaluations[0] = 0
            started = time.perf_counter()
            result = tabulated.decompose_for_threshold(target, gate=cz)
            measured_s += time.perf_counter() - started
            lookup_evals += evaluations[0]

            assert result.num_layers == reference.num_layers
            worst_shortfall = max(
                worst_shortfall,
                reference.decomposition_fidelity - result.decomposition_fidelity,
            )

        print(
            f"\ntabulation: build {build_s:.2f}s, reload {load_s * 1e3:.1f}ms, "
            f"classic {baseline_s:.2f}s / {classic_evals} evals vs lookup "
            f"{measured_s:.2f}s / {lookup_evals} evals over {NUM_TARGETS} targets "
            f"({classic_evals / lookup_evals:.2f}x evals, "
            f"{baseline_s / measured_s:.1f}x wall), "
            f"worst F_d shortfall {worst_shortfall:.2e}"
        )
        assert worst_shortfall <= 1e-3
        assert classic_evals >= 4 * lookup_evals
        bench_json_record(
            classic_evals=classic_evals,
            lookup_evals=lookup_evals,
            baseline_s=round(baseline_s, 4),
            measured_s=round(measured_s, 4),
            tabulate_build_s=round(build_s, 3),
            table_reload_s=round(load_s, 4),
            worst_fidelity_shortfall=float(worst_shortfall),
            num_targets=NUM_TARGETS,
            resolution=RESOLUTION,
        )
    finally:
        reset_disk_cache_configuration()
        clear_table_cache()
        clear_profile_cache()
