"""Command-line interface for regenerating the paper's tables and figures.

Every evaluation artefact has a subcommand::

    python -m repro table1            # Table I gate catalogue + identities
    python -m repro table2            # Table II instruction sets
    python -m repro fig6              # NuOp vs analytic baseline gate counts
    python -m repro fig7              # exact vs approximate decomposition sweep
    python -m repro fig8              # fSim expressivity heatmaps
    python -m repro fig9              # Rigetti Aspen-8 instruction-set study
    python -m repro fig10             # Google Sycamore instruction-set study
    python -m repro fig10f            # Fermi-Hubbard error-rate scaling
    python -m repro fig11a            # calibration circuit-count scaling
    python -m repro fig11b            # calibration time vs reliability tradeoff
    python -m repro design            # greedy instruction-set design (Section VIII.A)
    python -m repro calibration       # drift + recalibration policy comparison
    python -m repro apps              # list registered application workloads
    python -m repro pipelines         # list registered compiler pipelines
    python -m repro pipelines --stats # per-pass rewrite statistics + autotuner verdict
    python -m repro simulators        # list registered simulator backends
    python -m repro cache stats       # persistent + in-process cache counters
    python -m repro cache clear       # drop every persisted compilation/simulation
    python -m repro serve             # long-lived study service (docs/service.md)
    python -m repro submit            # submit a study to a running service

Each figure subcommand accepts ``--paper-scale`` to run the full
configuration from the paper instead of the fast default, plus
``--cache-dir`` to enable the persistent disk compilation/simulation
cache; the study subcommands (fig9/fig10/fig10f) also accept
``--pipeline`` to select a named compiler pipeline (see ``repro
pipelines``) or ``--pipeline auto`` to let the autotuner pick one per
workload, and ``--backend`` to select the simulator backend for the
simulate nodes (see ``repro simulators``; the default ``auto`` is the
historical qubit-threshold dispatch).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.visualization import render_figure8, render_figure9, render_figure10, render_figure11a
from repro.visualization.text import render_table


def _scale(
    config_class,
    paper_scale: bool,
    workers: Optional[int] = None,
    pipeline: Optional[str] = None,
    backend: Optional[str] = None,
):
    config = config_class.paper_scale() if paper_scale else config_class.quick()
    if workers is not None:
        if hasattr(config, "workers"):
            config.workers = workers
        else:
            print(
                f"warning: --workers has no effect on {config_class.__name__} "
                "(this experiment runs no engine studies)",
                file=sys.stderr,
            )
    if pipeline is not None:
        if hasattr(config, "pipeline"):
            config.pipeline = pipeline
        else:
            print(
                f"warning: --pipeline has no effect on {config_class.__name__} "
                "(this experiment does not compile through the pipeline driver)",
                file=sys.stderr,
            )
    if backend is not None:
        if hasattr(config, "backend"):
            config.backend = backend
        else:
            print(
                f"warning: --backend has no effect on {config_class.__name__} "
                "(this experiment does not simulate through the engine)",
                file=sys.stderr,
            )
    return config


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns the text to print)
# ---------------------------------------------------------------------------


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table1_identities, table1_rows

    rows = [
        {
            "vendor": row.vendor,
            "status": row.status,
            "gate": row.gate_name,
            "fidelity": row.fidelity_range,
        }
        for row in table1_rows()
    ]
    identities = table1_identities()
    checks = "\n".join(f"  {name}: {'ok' if value else 'FAILED'}" for name, value in identities.items())
    return "Table I: vendor gate types\n" + render_table(rows) + "\n\ngate identities:\n" + checks


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table2_rows

    rows = [
        {
            "set": row.name,
            "kind": row.kind,
            "#types": row.num_gate_types,
            "members": ",".join(row.members) or "-",
        }
        for row in table2_rows()
    ]
    return "Table II: instruction sets\n" + render_table(rows)


def _cmd_fig6(args: argparse.Namespace) -> str:
    from repro.experiments.fig6 import Figure6Config, run_figure6

    result = run_figure6(_scale(Figure6Config, args.paper_scale, workers=getattr(args, 'workers', None)))
    return result.format_table()


def _cmd_fig7(args: argparse.Namespace) -> str:
    from repro.experiments.fig7 import Figure7Config, run_figure7

    result = run_figure7(_scale(Figure7Config, args.paper_scale, workers=getattr(args, 'workers', None)))
    return result.format_table()


def _cmd_fig8(args: argparse.Namespace) -> str:
    from repro.experiments.fig8 import Figure8Config, run_figure8

    config = _scale(Figure8Config, args.paper_scale, workers=getattr(args, "workers", None))
    result = run_figure8(config)
    return render_figure8(result)


def _cmd_fig9(args: argparse.Namespace) -> str:
    from repro.experiments.fig9 import Figure9Config, run_figure9

    result = run_figure9(_scale(Figure9Config, args.paper_scale, workers=getattr(args, 'workers', None), pipeline=getattr(args, 'pipeline', None), backend=getattr(args, 'backend', None)))
    return render_figure9(result) + "\n\n" + result.format_table()


def _cmd_fig10(args: argparse.Namespace) -> str:
    from repro.experiments.fig10 import Figure10Config, run_figure10

    result = run_figure10(_scale(Figure10Config, args.paper_scale, workers=getattr(args, 'workers', None), pipeline=getattr(args, 'pipeline', None), backend=getattr(args, 'backend', None)))
    return render_figure10(result) + "\n\n" + result.format_table()


def _cmd_fig10f(args: argparse.Namespace) -> str:
    from repro.experiments.fig10 import Figure10fConfig, run_figure10f

    result = run_figure10f(_scale(Figure10fConfig, args.paper_scale, workers=getattr(args, 'workers', None), pipeline=getattr(args, 'pipeline', None), backend=getattr(args, 'backend', None)))
    return result.format_table()


def _cmd_fig11a(args: argparse.Namespace) -> str:
    from repro.experiments.fig11 import Figure11aConfig, run_figure11a

    return render_figure11a(run_figure11a(Figure11aConfig()))


def _cmd_fig11b(args: argparse.Namespace) -> str:
    from repro.experiments.fig11 import Figure11bConfig, run_figure11b

    config = Figure11bConfig.quick()
    if args.paper_scale:
        from repro.experiments.fig10 import Figure10Config

        config = Figure11bConfig(figure10_config=Figure10Config.paper_scale())
    workers = getattr(args, "workers", None)
    if workers is not None and config.figure10_config is not None:
        config.figure10_config.workers = workers
    return run_figure11b(config).format_table()


def _cmd_design(args: argparse.Namespace) -> str:
    from repro.applications import unitary_ensembles
    from repro.core.expressivity import (
        candidate_gate_grid,
        design_tradeoff_curve,
        expressivity_table,
        knee_of_curve,
    )

    unitaries = unitary_ensembles(args.unitaries, seed=args.seed)
    selected = {name: unitaries[name] for name in args.applications}
    candidates = candidate_gate_grid(args.grid, args.grid, include_swap=True)
    table = expressivity_table(selected, candidates, max_layers=args.max_layers)
    designs = design_tradeoff_curve(table, max_gate_types=args.max_types)
    rows = [
        {
            "#types": design.num_gate_types,
            "mean 2Q count": design.mean_instruction_count,
            "calibration h": design.calibration_hours,
            "selection": "; ".join(design.selection),
        }
        for design in designs
    ]
    knee = knee_of_curve(designs)
    return (
        "Greedy instruction-set design (Section VIII.A procedure)\n"
        + render_table(rows)
        + f"\n\nknee of the curve (diminishing returns): {knee} gate types"
    )


def _cmd_calibration(args: argparse.Namespace) -> str:
    from repro.calibration.drift import drift_model_for_instruction_set
    from repro.calibration.scheduler import (
        NeverPolicy,
        PeriodicPolicy,
        ThresholdPolicy,
        compare_policies,
    )

    type_keys = [f"type_{index}" for index in range(args.gate_types)]
    results = compare_policies(
        lambda: drift_model_for_instruction_set(args.edges, type_keys, seed=args.seed),
        [
            PeriodicPolicy(period_hours=args.period),
            ThresholdPolicy(degradation_threshold=args.threshold),
            NeverPolicy(),
        ],
        horizon_hours=args.horizon,
    )
    rows = [result.as_row() for result in results.values()]
    return (
        f"Recalibration policies ({args.gate_types} gate types, {args.edges} edges, "
        f"{args.horizon:.0f} h horizon)\n" + render_table(rows)
    )


def _resolve_cli_disk_cache(args: argparse.Namespace):
    """Disk cache addressed by ``--cache-dir`` / ``REPRO_CACHE_DIR`` (or None).

    Resolved through the shared per-directory registry so the counters
    printed by ``repro cache stats`` include traffic from studies that used
    the same directory earlier in this process.
    """
    from repro.caching.disk import disk_cache_for, get_global_disk_cache

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return disk_cache_for(cache_dir)
    return get_global_disk_cache()


def _in_process_cache_report() -> str:
    """Counters of every in-process cache tier (one row group per cache).

    These die with the process, so a bare ``repro cache stats`` invocation
    reports zeros -- the section exists for long-lived processes (REPLs,
    notebooks, test harnesses) where studies have already run, and to make
    the previously invisible ideal-distribution cache inspectable at all.
    """
    import repro.experiments.engine  # noqa: F401  (registers every LRU tier)
    from repro.caching.lru import registered_cache_stats
    from repro.resilience import fault_stats, retry_stats
    from repro.simulators.superop import batched_replay_stats

    faults = fault_stats()
    sections = registered_cache_stats()
    sections["batched replay"] = batched_replay_stats()
    # Resilience counters (repro.resilience): retry/recovery totals for
    # this process, plus what the active fault plan injected (all zeros
    # and plan "-" in a normal, fault-free process).
    sections["resilience (retries)"] = retry_stats()
    sections["resilience (faults)"] = {
        "plan": faults["plan"] or "-",
        "injected": sum(
            count
            for kinds in faults["injected"].values()
            for count in kinds.values()
        ),
        "consultations": sum(faults["consultations"].values()),
    }
    rows = [
        {"cache": name, "field": key, "value": value}
        for name, stats in sections.items()
        for key, value in stats.items()
    ]
    return "In-process caches (this process only)\n" + render_table(rows)


def _cmd_cache(args: argparse.Namespace) -> str:
    cache = _resolve_cli_disk_cache(args)
    if cache is None:
        return (
            "no disk compilation/simulation cache configured\n"
            "(set REPRO_CACHE_DIR or pass --cache-dir to enable the persistent tier)\n\n"
            + _in_process_cache_report()
        )
    if args.cache_command == "clear":
        removed = cache.clear()
        return f"cleared {removed} cached result(s) from {cache.root}"
    stats = cache.stats()
    rows = [
        {"field": key, "value": "unbounded" if key == "max_bytes" and value is None else value}
        for key, value in stats.items()
    ]
    return (
        "Disk compilation + simulation cache\n"
        + render_table(rows)
        + "\n\n"
        + _in_process_cache_report()
    )


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.service.protocol import ShardSpec
    from repro.service.server import serve

    shard = ShardSpec.parse(args.shard) if args.shard else None
    return serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        exec_workers=args.exec_workers,
        shard=shard,
        batch=args.batch,
        request_deadline=args.request_deadline,
    )


def _cmd_submit(args: argparse.Namespace) -> str:
    import json

    from repro.service.client import fetch_stats, submit_study
    from repro.service.protocol import StudySpec

    if args.stats:
        return json.dumps(fetch_stats(host=args.host, port=args.port), indent=2, sort_keys=True)
    if args.spec_json:
        spec = StudySpec.from_json_dict(json.loads(args.spec_json))
    else:
        if not args.app:
            raise SystemExit("repro submit: --app is required (or pass --spec-json / --stats)")
        spec = StudySpec(
            application=args.app,
            num_qubits=args.qubits,
            num_circuits=args.circuits,
            seed=args.seed,
            metric=args.metric,
            catalogue=args.catalogue,
            sets=tuple(args.sets) if args.sets else None,
            topology=args.topology,
            pipeline=args.pipeline,
            shots=args.shots,
            backend=args.backend,
            error_scale=args.error_scale,
            error_scales=tuple(args.error_scales) if args.error_scales else None,
        )
    table = ""
    # Stream records as the daemon produces them: one NDJSON line per
    # record, flushed immediately so long studies show per-job progress.
    for record in submit_study(spec, host=args.host, port=args.port, timeout=args.timeout):
        sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        sys.stdout.flush()
        if args.table and record.get("type") == "study" and record.get("complete"):
            table = str(record.get("table", ""))
    return table


def _cmd_simulators(args: argparse.Namespace) -> str:
    from repro.simulators.backend import active_simulation_kernel, available_backends
    from repro.simulators.superop import sim_batch_max_bytes

    rows = [
        {
            "backend": name,
            "version": backend.version,
            "description": backend.description,
        }
        for name, backend in sorted(available_backends().items())
    ]
    return (
        "Registered simulator backends\n"
        + render_table(rows)
        + f"\n\nactive kernel: {active_simulation_kernel()} "
        "(REPRO_SIM_KERNEL=fused|reference; fused = one contraction per\n"
        "fused channel group, reference = the pinned bit-identical replay)\n"
        f"batch working-set cap: {sim_batch_max_bytes()} bytes "
        "(REPRO_SIM_BATCH_MAX_BYTES; bounds the\n"
        "(B, 2^n, 2^n) rho stack of one batched-replay pass)\n"
        "\nSelect with --backend on fig9/fig10/fig10f, backend= on run_study,\n"
        "or SimulationOptions(method=...); 'auto' dispatches by qubit count\n"
        "(density-matrix up to max_density_matrix_qubits, else trajectory)."
    )


def _cmd_pipelines(args: argparse.Namespace) -> str:
    from repro.compiler.manager import available_pipelines

    if getattr(args, "stats", False):
        return _pipelines_stats_report(args)
    rows = [
        {
            "pipeline": name,
            "passes": " -> ".join(config.passes),
            "overrides": ", ".join(f"{k}={v}" for k, v in sorted(config.overrides.items())) or "-",
            "description": config.description,
        }
        for name, config in sorted(available_pipelines().items())
    ]
    return "Registered compiler pipelines\n" + render_table(rows)


def _pipelines_stats_report(args: argparse.Namespace) -> str:
    """Compile a sample workload under every pipeline; report per-pass stats.

    The workload is a seeded QV circuit on a synthetic line device with the
    G3 instruction set -- small enough to stay interactive, rich enough
    that routing, NuOp and the cleanup passes all have work to do.  A fresh
    device per pipeline keeps the sampled calibration identical, so the
    rewrite counters and predicted fidelities are directly comparable, and
    the autotuner's verdict over its candidate set is printed last.
    """
    import numpy as np

    from repro.applications import qv_circuit
    from repro.compiler.autotune import autotune_pipeline, predicted_compiled_fidelity
    from repro.compiler.manager import available_pipelines
    from repro.core.decomposer import NuOpDecomposer
    from repro.core.instruction_sets import google_instruction_set
    from repro.core.pipeline import compile_circuit
    from repro.devices.synthetic import synthetic_device

    num_qubits = getattr(args, "qubits", 3)
    circuit = qv_circuit(num_qubits, rng=np.random.default_rng(7))
    instruction_set = google_instruction_set("G3")
    decomposer = NuOpDecomposer(seed=7)

    def device():
        return synthetic_device(num_qubits + 2, "line", seed=13)

    sections: List[str] = [
        f"Per-pass rewrite statistics ({num_qubits}-qubit QV sample workload, G3)"
    ]
    summary_rows: List[Dict[str, object]] = []
    for name in sorted(available_pipelines()):
        target = device()
        compiled = compile_circuit(
            circuit, target, instruction_set, decomposer=decomposer, pipeline=name
        )
        fidelity = predicted_compiled_fidelity(compiled, target)
        summary_rows.append(
            {
                "pipeline": name,
                "predicted_fidelity": round(fidelity, 4),
                "2q": compiled.two_qubit_gate_count,
                "1q": compiled.circuit.num_single_qubit_gates(),
                "depth": compiled.circuit.depth(),
            }
        )
        rows = [record.as_row() for record in compiled.pass_stats]
        sections.append(f"pipeline: {name}\n" + render_table(rows))

    sections.insert(1, "Summary\n" + render_table(summary_rows))
    verdict = autotune_pipeline(circuit, device(), instruction_set, decomposer=decomposer)
    verdict_rows = [score.as_row() for score in verdict.scores]
    sections.append(
        "Autotuner verdict (pipeline=\"auto\" candidates)\n"
        + render_table(verdict_rows)
        + f"\nauto picks: {verdict.pipeline}"
    )
    return "\n\n".join(sections)


def _cmd_apps(args: argparse.Namespace) -> str:
    from repro.applications.registry import application_registry

    rows = [
        {
            "name": spec.name,
            "paper": "yes" if spec.paper_workload else "no",
            "metric": spec.recommended_metric,
            "description": spec.description,
        }
        for spec in application_registry().values()
    ]
    return "Registered application workloads\n" + render_table(rows)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CHECK_DEVICES = ("sycamore", "aspen-8")
"""Built-in devices ``repro check`` sweeps (see ``--device``)."""


def _check_device_and_catalogue(name: str):
    """Instantiate a built-in device plus the catalogue evaluated on it."""
    from repro.core.instruction_sets import google_catalogue, rigetti_catalogue
    from repro.devices.aspen8 import aspen8_device
    from repro.devices.sycamore import sycamore_device

    if name == "sycamore":
        return sycamore_device(), google_catalogue()
    if name == "aspen-8":
        return aspen8_device(), rigetti_catalogue()
    raise ValueError(f"unknown device {name!r}; known: {', '.join(_CHECK_DEVICES)}")


def _cmd_check(args: argparse.Namespace) -> str:
    """``repro check``: the static verification prongs (docs/analysis.md).

    ``--source`` / ``--circuits`` / ``--programs`` select prongs; none
    selected runs all three.  Exit code 1 when any finding is reported,
    so CI can gate on it; ``--json`` emits the machine-readable report.
    """
    import json

    from repro.analysis.findings import render_findings

    selected = [
        name for name in ("source", "circuits", "programs") if getattr(args, name)
    ]
    if not selected:
        selected = ["source", "circuits", "programs"]
    prongs: Dict[str, list] = {}

    if "source" in selected:
        from repro.analysis.source_lints import run_source_lints

        prongs["source"] = run_source_lints(root=args.root)

    if "circuits" in selected or "programs" in selected:
        from repro.analysis.channel_checks import (
            check_noise_program,
            check_superop_program,
        )
        from repro.analysis.circuit_checks import verify_compiled_circuit
        from repro.applications.ghz import ghz_circuit
        from repro.core.decomposer import NuOpDecomposer
        from repro.core.pipeline import compile_circuit
        from repro.simulators.noise_program import noise_program_for
        from repro.simulators.superop import superop_program_for

        circuit_findings: list = []
        program_findings: list = []
        decomposer = NuOpDecomposer()
        devices = [args.device] if args.device else list(_CHECK_DEVICES)
        for device_name in devices:
            device, catalogue = _check_device_and_catalogue(device_name)
            if args.sets:
                unknown = sorted(set(args.sets) - set(catalogue))
                if unknown:
                    raise SystemExit(
                        f"unknown instruction set(s) for {device_name}: "
                        f"{', '.join(unknown)} (known: {', '.join(catalogue)})"
                    )
                names = [name for name in catalogue if name in set(args.sets)]
            else:
                names = list(catalogue)
            for set_name in names:
                instruction_set = catalogue[set_name]
                compiled = compile_circuit(
                    ghz_circuit(args.qubits), device, instruction_set,
                    decomposer=decomposer,
                )
                where = f"{device_name}/{set_name}"
                if "circuits" in selected:
                    from repro.analysis.findings import Finding

                    circuit_findings += [
                        Finding(
                            check=finding.check,
                            where=(
                                f"{where}: {finding.where}"
                                if finding.where
                                else where
                            ),
                            message=finding.message,
                        )
                        for finding in verify_compiled_circuit(
                            compiled, device, instruction_set
                        )
                    ]
                if "programs" in selected:
                    for scale in args.scales:
                        scale_where = f"{where}/scale={scale:g}"
                        program = noise_program_for(
                            compiled, device, error_scale=scale
                        )
                        program_findings += check_noise_program(
                            program, atol=args.atol, where=scale_where
                        )
                        program_findings += check_superop_program(
                            superop_program_for(program),
                            atol=args.atol,
                            where=scale_where,
                        )
        if "circuits" in selected:
            prongs["circuits"] = circuit_findings
        if "programs" in selected:
            prongs["programs"] = program_findings

    total = sum(len(findings) for findings in prongs.values())
    if total:
        args.exit_code = 1
    if getattr(args, "as_json", False):
        return json.dumps(
            {
                "ok": total == 0,
                "findings": total,
                "prongs": {
                    name: [finding.as_dict() for finding in findings]
                    for name, findings in prongs.items()
                },
            },
            indent=2,
            sort_keys=True,
        )
    lines = []
    for name, findings in prongs.items():
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        lines.append(f"[{name}] {status}")
        lines.extend(f"  {line}" for line in render_findings(findings))
    lines.append(
        "repro check: all prongs clean"
        if total == 0
        else f"repro check: {total} finding(s)"
    )
    return "\n".join(lines)


_FIGURE_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig10f": _cmd_fig10f,
    "fig11a": _cmd_fig11a,
    "fig11b": _cmd_fig11b,
    "design": _cmd_design,
    "calibration": _cmd_calibration,
    "apps": _cmd_apps,
    "cache": _cmd_cache,
    "pipelines": _cmd_pipelines,
    "simulators": _cmd_simulators,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "check": _cmd_check,
}


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1 (clean error instead of a traceback)."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the calibration/expressivity ISA paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "table2", "fig11a", "apps"):
        subparsers.add_parser(name, help=f"print {name}")

    for name in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig10f", "fig11b"):
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument(
            "--paper-scale",
            action="store_true",
            help="run the full paper-scale configuration (slow) instead of the quick one",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="experiment-engine worker pool size (1 = serial, 0 = all cores); "
            "results are bit-identical for every value",
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            help="enable the persistent disk compilation cache in this directory "
            "(overrides the REPRO_CACHE_DIR environment variable)",
        )
        if name in ("fig9", "fig10", "fig10f"):
            from repro.compiler.autotune import AUTO_PIPELINE
            from repro.compiler.manager import available_pipelines
            from repro.simulators.backend import available_backends

            sub.add_argument(
                "--pipeline",
                default=None,
                choices=sorted(available_pipelines()) + [AUTO_PIPELINE],
                help="compiler pipeline for the study's compile stage "
                "(see `repro pipelines`; 'auto' = pick per workload by "
                "predicted compiled fidelity; default: the config's pipeline)",
            )
            sub.add_argument(
                "--backend",
                default=None,
                choices=sorted(available_backends()),
                help="simulator backend for the study's simulate stage "
                "(see `repro simulators`; default: the config's backend, "
                "'auto' = density-matrix/trajectory by qubit count)",
            )

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the persistent disk compilation cache"
    )
    cache.add_argument(
        "cache_command",
        choices=("stats", "clear"),
        help="stats: counters + footprint; clear: delete every cached compilation",
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: the REPRO_CACHE_DIR environment variable)",
    )

    pipelines = subparsers.add_parser(
        "pipelines", help="list the registered compiler pipelines and their passes"
    )
    pipelines.add_argument(
        "--stats",
        action="store_true",
        help="compile a sample workload under every pipeline and report "
        "per-pass rewrite statistics, predicted fidelities and the "
        "autotuner's verdict",
    )
    pipelines.add_argument(
        "--qubits",
        type=_positive_int,
        default=3,
        help="sample-workload width for --stats (default 3)",
    )

    subparsers.add_parser(
        "simulators", help="list the registered simulator backends"
    )

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived study service (see docs/service.md)",
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help=f"bind address (default {DEFAULT_HOST})")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port; 0 picks an ephemeral port (default {DEFAULT_PORT})",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent disk cache directory; shared across services it "
        "doubles as the artifact store for --shard splits "
        "(default: the REPRO_CACHE_DIR environment variable)",
    )
    serve.add_argument(
        "--exec-workers",
        type=_positive_int,
        default=1,
        help="backend-invocation worker threads (default 1: the win is "
        "dedup and cache residency, not parallelism)",
    )
    serve.add_argument(
        "--shard",
        default=None,
        help="simulate only the k/N slice of the simulation key space "
        "(e.g. 1/2); out-of-shard cache misses are deferred, not computed",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=1,
        help="batched replay of same-structure cache misses: 1 disables "
        "(default), 0 batches up to the REPRO_SIM_BATCH_MAX_BYTES cap, "
        "N>=2 caps groups at N jobs (see docs/simulators.md)",
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        help="per-request wall-clock budget in seconds; past it, remaining "
        "jobs report source:'deadline' and the study closes complete:false "
        "(default: REPRO_RETRY_REQUEST_DEADLINE_MS, unset = unbounded)",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit a study to a running `repro serve` daemon (NDJSON out)",
    )
    submit.add_argument("--host", default=DEFAULT_HOST)
    submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="socket timeout in seconds (default: REPRO_CLIENT_TIMEOUT, 300)",
    )
    submit.add_argument("--stats", action="store_true", help="print the daemon's /v1/stats snapshot instead of submitting")
    submit.add_argument("--spec-json", default=None, help="full study spec as a JSON object (overrides the flags below)")
    submit.add_argument("--app", default=None, help="application registry name (see `repro apps`)")
    submit.add_argument("--qubits", type=_positive_int, default=3)
    submit.add_argument("--circuits", type=_positive_int, default=1)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--metric", default="hop", choices=("hop", "xed", "xeb", "tvd"))
    submit.add_argument("--catalogue", default="google", choices=("google", "rigetti", "table2"))
    submit.add_argument("--sets", nargs="+", default=None, help="instruction-set subset (default: whole catalogue)")
    submit.add_argument("--topology", default="line", choices=("line", "ring", "grid"))
    submit.add_argument("--pipeline", default="default")
    submit.add_argument("--shots", type=_positive_int, default=3000)
    submit.add_argument("--backend", default="auto")
    submit.add_argument("--error-scale", type=float, default=1.0)
    submit.add_argument(
        "--error-scales",
        nargs="+",
        type=float,
        default=None,
        help="error-scale sweep: each scale != 1 adds a '<set>-<scale>x' "
        "alias of every selected set (the fig10 FullfSim-2x pattern); "
        "sweep jobs share structure, so a --batch'ed daemon vectorises them",
    )
    submit.add_argument("--table", action="store_true", help="also print the merged study table after the NDJSON stream")

    design = subparsers.add_parser("design", help="greedy instruction-set design")
    design.add_argument("--grid", type=int, default=4, help="fSim candidate grid points per axis")
    design.add_argument("--unitaries", type=int, default=3, help="unitaries per application")
    design.add_argument("--max-types", type=int, default=6, help="largest set size to design")
    design.add_argument("--max-layers", type=int, default=4, help="NuOp layer budget")
    design.add_argument("--seed", type=int, default=0)
    design.add_argument(
        "--applications",
        nargs="+",
        default=["qv", "qaoa", "swap"],
        help="workloads to weight in the design (qv, qaoa, qft, fh, swap)",
    )

    check = subparsers.add_parser(
        "check",
        help="static verification: source lints, IR invariants, CPTP programs "
        "(see docs/analysis.md)",
    )
    check.add_argument(
        "--source", action="store_true", help="run only the source lints"
    )
    check.add_argument(
        "--circuits", action="store_true", help="run only the IR invariant checkers"
    )
    check.add_argument(
        "--programs", action="store_true", help="run only the CPTP channel checkers"
    )
    check.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the machine-readable findings report",
    )
    check.add_argument(
        "--root",
        default=None,
        help="source tree for the lints (default: the installed repro package)",
    )
    check.add_argument(
        "--device",
        choices=_CHECK_DEVICES,
        default=None,
        help="restrict the circuit/program sweeps to one built-in device",
    )
    check.add_argument(
        "--sets",
        nargs="+",
        default=None,
        help="restrict the sweeps to these instruction sets (default: the "
        "device's full Table II catalogue)",
    )
    check.add_argument(
        "--qubits",
        type=_positive_int,
        default=2,
        help="probe-circuit width for the sweeps (default 2)",
    )
    check.add_argument(
        "--scales",
        nargs="+",
        type=float,
        default=(1.0, 2.0, 3.0),
        help="error scales the program prong verifies (default: 1 2 3)",
    )
    check.add_argument(
        "--atol",
        type=float,
        default=1e-9,
        help="absolute tolerance of the CPTP comparisons (default 1e-9)",
    )

    calibration = subparsers.add_parser("calibration", help="drift + recalibration policy comparison")
    calibration.add_argument("--gate-types", type=int, default=4)
    calibration.add_argument("--edges", type=int, default=10)
    calibration.add_argument("--horizon", type=float, default=7 * 24.0, help="hours simulated")
    calibration.add_argument("--period", type=float, default=24.0, help="periodic policy period (hours)")
    calibration.add_argument("--threshold", type=float, default=2.0, help="threshold policy degradation")
    calibration.add_argument("--seed", type=int, default=17)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command != "cache" and getattr(args, "cache_dir", None):
        from repro.caching.disk import configure_disk_cache

        configure_disk_cache(args.cache_dir)
    handler = _FIGURE_COMMANDS[args.command]
    print(handler(args))
    return int(getattr(args, "exit_code", 0))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
