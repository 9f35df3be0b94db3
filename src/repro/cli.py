"""Command-line interface: ``python -m repro <command> ...``.

Gives downstream users the main entry points without writing Python:

* ``run``         — evaluate one declarative :class:`~repro.runs.Scenario`
  (topology × workload × pattern × backend) and optionally persist the
  record in the run registry; ``--kill-links``/``--kill-switches``/
  ``--random-link-failures`` evaluate the same scenario on a degraded
  fabric;
* ``serve``       — long-running scenario service: POST a Scenario JSON to
  ``/solve``, get the RunResult record back, with identical questions
  answered from the content-addressed registry cache (see
  :mod:`repro.serve`);
* ``runs``        — registry operations: ``runs list`` (``--indexed`` for
  SQLite-backed queries), ``runs diff``, ``runs doctor`` (corruption
  audit / quarantine) and ``runs reindex`` (rebuild the query index);
* ``lint``        — static analysis of the source tree itself: the
  file-local invariant rules (REP001-004, REP006-007) plus the call-graph
  concurrency rules (REP201-204); ``--rules`` selects families
  (``REP2xx``), ``--list-rules`` prints the catalog, exit 1 on findings;
* ``model``       — one analytical evaluation (per-channel latency
  breakdown);
* ``info``        — topology summary;
* ``patterns``    — list the registered traffic scenarios;
* ``design``      — SLO-driven design-space exploration (feasible set,
  cheapest design, Pareto frontier) over topology families and patterns;
  ``--save`` records the frontier as a ``kind="exploration"`` run so it
  diffs across PRs like any other record;
* ``experiment``  — regenerate a paper artifact (fig3, throughput, scaling,
  ablations, other-networks, validate, generalized, buffering,
  service-times, design, faults).

Every subcommand accepts ``--json``: machine-readable output through one
shared formatter (non-finite floats encode as the sentinel strings of
:mod:`repro.runs.result`).  ``run`` and ``model`` accept ``--pattern``
(plus ``--hotspot-fraction`` / ``--hotspot-target``), so every backend
answers every registered traffic scenario.  Latency curves, saturation
loads and simulations are all ``run`` (``--points N``, ``--points 0``,
``--backend simulate``).

Exit status: 0 on success; 2 on invalid arguments or infeasible scenarios
(:class:`~repro.errors.ConfigurationError` / ``SaturatedError`` /
``PartitionedNetworkError`` — the requested fault set disconnects the
network — printed as a one-line message, matching the argparse
convention); 1 on any other library error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .config import Workload
from .core.bft_model import ButterflyFatTreeModel
from .errors import (
    ConfigurationError,
    PartitionedNetworkError,
    ReproError,
    SaturatedError,
)
from .topology.butterfly_fattree import ButterflyFatTree
from .topology.properties import describe_topology
from .traffic.spec import available_patterns, make_spec
from .util.tables import format_table
from .util.validation import exact_exponent

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig3": "run_fig3",
    "throughput": "run_throughput_table",
    "ablations": "run_ablations",
    "validate": "run_validation",
    "buffering": "run_buffering",
    "service-times": "run_service_times",
    "design": "run_design_exploration",
    "faults": "run_fault_degradation",
}
#: Experiments that are validation cell lists, rendered by ``run_validation``.
_CELL_LISTS = {
    "scaling": "scaling_cells",
    "generalized": "generalized_cells",
    "other-networks": "other_networks_cells",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for shell-completion tooling)."""
    from .runs.scenario import BACKENDS, SIMULATORS, TOPOLOGIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wormhole-routed butterfly fat-tree performance models "
        "(Greenberg & Guan, ICPP 1997 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of tables",
        )

    def add_pattern(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--pattern",
            choices=available_patterns(),
            default="uniform",
            help="destination pattern (traffic scenario)",
        )
        p.add_argument(
            "--hotspot-fraction",
            type=float,
            default=0.1,
            help="hotspot pattern: probability of addressing the hot node",
        )
        p.add_argument(
            "--hotspot-target",
            type=int,
            default=0,
            help="hotspot pattern: the hot node",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--processors",
            "-n",
            type=int,
            default=256,
            help="number of processors (power of 4)",
        )
        p.add_argument(
            "--flits", "-f", type=int, default=32, help="message length in flits"
        )
        p.add_argument(
            "--load",
            "-l",
            type=float,
            default=0.02,
            help="offered load in flits/cycle/PE (Figure-3 units)",
        )
        add_pattern(p)
        add_json(p)

    def add_registry(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--registry",
            default=None,
            help="run-registry directory (default: benchmarks/results/runs)",
        )

    def add_scenario_shape(p: argparse.ArgumentParser) -> None:
        """Flags that pick the topology family, its shape, and the faults."""
        add_common(p)
        p.add_argument(
            "--topology",
            choices=TOPOLOGIES,
            default="bft",
            help="topology family; -n/--processors sets the machine size and "
            "the family flags below refine the shape",
        )
        p.add_argument(
            "--children",
            type=int,
            default=None,
            help="generalized-fattree: block radix (default 4)",
        )
        p.add_argument(
            "--parents",
            type=int,
            default=None,
            help="generalized-fattree: up-links per switch (default 2)",
        )
        p.add_argument(
            "--levels",
            type=int,
            default=None,
            help="generalized-fattree: tree height (derived from -n by default)",
        )
        p.add_argument(
            "--dimension",
            type=int,
            default=None,
            help="hypercube: cube dimension (derived from -n by default)",
        )
        p.add_argument(
            "--radix",
            type=int,
            default=None,
            help="kary-ncube: ring length k (default 4)",
        )
        p.add_argument(
            "--kill-links",
            default="",
            help="comma-separated dead links as direction:level:index "
            "(e.g. up:0:1 kills PE 1's injection link)",
        )
        p.add_argument(
            "--kill-switches",
            default="",
            help="comma-separated dead switches as level:address "
            "(every incident link dies)",
        )
        p.add_argument(
            "--random-link-failures",
            type=int,
            default=0,
            help="additionally kill this many random level>=1 links",
        )
        p.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            help="seed for --random-link-failures draws",
        )

    p_run = sub.add_parser(
        "run",
        help="evaluate one Scenario through a backend (the unified facade)",
    )
    add_scenario_shape(p_run)
    p_run.add_argument(
        "--backend",
        choices=BACKENDS,
        default="batch",
        help="batch (the paper's model; 'model' is an alias), simulate, baseline",
    )
    p_run.add_argument(
        "--points",
        type=int,
        default=8,
        help="latency-curve grid points (0 skips the curve; analytical backends)",
    )
    p_run.add_argument(
        "--simulator",
        choices=SIMULATORS,
        default="event",
        help="engine of the simulate backend: event (worm-level), flit "
        "(cycle-level), buffered (VC router)",
    )
    p_run.add_argument(
        "--replications", type=int, default=3, help="simulate backend: seeded runs"
    )
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--warmup", type=float, default=3000.0)
    p_run.add_argument("--measure", type=float, default=9000.0)
    p_run.add_argument(
        "--check",
        action="store_true",
        help="run the pre-solve static checks first; refuse to solve (exit 2) "
        "on any error finding and record the report in the run's provenance",
    )
    p_run.add_argument("--label", default="", help="free-form tag for the registry")
    p_run.add_argument(
        "--save", action="store_true", help="persist the record in the run registry"
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace-format JSON of the run's spans to PATH "
        "(load it in chrome://tracing or Perfetto)",
    )
    add_registry(p_run)

    p_check = sub.add_parser(
        "check",
        help="pre-solve static analysis of one scenario (no solving): flow "
        "conservation, stage-graph structure, entry weights, stability",
    )
    add_scenario_shape(p_check)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis of the source tree: invariant rules "
        "(REP001-004, REP006-007) plus call-graph concurrency rules (REP201-204)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--rules",
        default=None,
        metavar="SPEC",
        help="comma-separated rule selection; a family prefix like REP2xx "
        "or REP2* selects every rule in it (default: all rules)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (rule, pragma, description) and exit",
    )
    add_json(p_lint)

    p_serve = sub.add_parser(
        "serve",
        help="long-running scenario service: POST /solve a Scenario JSON, "
        "identical questions answered from the indexed registry",
    )
    add_registry(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="listen address")
    p_serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--solver-threads",
        type=int,
        default=1,
        help="solve worker threads (solves are CPU-bound; concurrency "
        "comes from cache hits and request coalescing)",
    )

    p_runs = sub.add_parser("runs", help="run-registry operations")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_list = runs_sub.add_parser("list", help="list persisted runs")
    add_registry(p_list)
    p_list.add_argument("--backend", default=None, help="filter by backend")
    p_list.add_argument("--topology", default=None, help="filter by topology family")
    p_list.add_argument("--label", default=None, help="filter by label")
    p_list.add_argument(
        "--indexed",
        action="store_true",
        help="answer from the SQLite index (refreshed first) instead of "
        "scanning the JSONL file",
    )
    add_json(p_list)
    p_reindex = runs_sub.add_parser(
        "reindex",
        help="rebuild the SQLite query index from the JSONL source of truth",
    )
    add_registry(p_reindex)
    add_json(p_reindex)
    p_diff = runs_sub.add_parser(
        "diff", help="compare two runs (ids, 'latest', or JSON baseline files)"
    )
    p_diff.add_argument("a", help="run id, 'latest', or a JSON file path")
    p_diff.add_argument("b", help="run id, 'latest', or a JSON file path")
    add_registry(p_diff)
    p_diff.add_argument(
        "--top", type=int, default=25, help="rows shown (largest |rel| first)"
    )
    add_json(p_diff)
    p_doctor = runs_sub.add_parser(
        "doctor", help="audit the records file for corrupted lines"
    )
    add_registry(p_doctor)
    p_doctor.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt lines to runs.quarantine.jsonl and rewrite the "
        "records file without them",
    )
    add_json(p_doctor)
    p_stats = runs_sub.add_parser(
        "stats", help="aggregate observability telemetry across persisted runs"
    )
    add_registry(p_stats)
    p_stats.add_argument("--backend", default=None, help="filter by backend")
    p_stats.add_argument("--topology", default=None, help="filter by topology family")
    p_stats.add_argument("--label", default=None, help="filter by label")
    add_json(p_stats)

    p_model = sub.add_parser("model", help="evaluate the analytical model once")
    add_common(p_model)

    p_info = sub.add_parser("info", help="topology summary")
    p_info.add_argument("--processors", "-n", type=int, default=256)
    add_json(p_info)

    p_patterns = sub.add_parser(
        "patterns", help="list registered traffic scenarios (--pattern choices)"
    )
    add_json(p_patterns)

    p_design = sub.add_parser(
        "design",
        help="SLO-driven design-space exploration over topology families",
    )
    p_design.add_argument(
        "--families",
        default="bft",
        help="comma-separated topology families "
        "(bft, generalized-fattree, hypercube, kary-ncube)",
    )
    p_design.add_argument(
        "--sizes",
        default="16,64,256,1024",
        help="comma-separated machine sizes; sizes a family cannot realize "
        "are dropped for that family",
    )
    p_design.add_argument(
        "--flits", "-f", default="16,32,64", help="comma-separated message lengths"
    )
    p_design.add_argument(
        "--patterns",
        default="uniform",
        help="comma-separated traffic patterns (see `repro patterns`)",
    )
    p_design.add_argument(
        "--buffer-depths",
        default="1",
        help="comma-separated per-port buffer depths (cost-model knob)",
    )
    p_design.add_argument(
        "--children", type=int, default=4, help="generalized-fattree block radix"
    )
    p_design.add_argument(
        "--parents", type=int, default=2, help="generalized-fattree up-link count"
    )
    p_design.add_argument("--radix", type=int, default=4, help="kary-ncube radix")
    p_design.add_argument(
        "--demand",
        type=float,
        default=0.02,
        help="demand operating point in flits/cycle/PE",
    )
    p_design.add_argument(
        "--slo",
        type=float,
        default=75.0,
        help="latency SLO (cycles) at the demand point",
    )
    p_design.add_argument(
        "--min-headroom",
        type=float,
        default=1.0,
        help="minimum saturation-load / demand ratio",
    )
    p_design.add_argument(
        "--max-cost", type=float, default=None, help="optional budget cap"
    )
    p_design.add_argument(
        "--survive-faults",
        type=int,
        default=0,
        help="require the SLO to also hold after this many random link "
        "failures (0 disables the check)",
    )
    p_design.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the --survive-faults failure draw",
    )
    p_design.add_argument(
        "--processes", type=int, default=1, help="worker processes for evaluation"
    )
    p_design.add_argument(
        "--save",
        action="store_true",
        help="record the exploration (feasible set, Pareto frontier) as a "
        "kind='exploration' run in the registry so frontiers diff across PRs",
    )
    p_design.add_argument("--label", default="", help="free-form tag for the registry")
    add_registry(p_design)
    add_json(p_design)
    p_design.add_argument(
        "--hotspot-fraction",
        type=float,
        default=0.1,
        help="hotspot pattern: probability of addressing the hot node",
    )
    p_design.add_argument(
        "--hotspot-target", type=int, default=0, help="hotspot pattern: the hot node"
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("name", choices=sorted({**_EXPERIMENTS, **_CELL_LISTS}))
    p_exp.add_argument(
        "--full", action="store_true", help="paper-scale grids and windows"
    )
    add_json(p_exp)

    return parser


def _spec_from_args(args):
    """The TrafficSpec selected by --pattern, or None for plain uniform.

    Uniform keeps the closed-form fast path (and byte-identical output with
    older versions); every other pattern builds a spec for the pattern-aware
    model/simulator.
    """
    if args.pattern == "uniform":
        return None
    return make_spec(
        args.pattern,
        hotspot_fraction=args.hotspot_fraction,
        hotspot_target=args.hotspot_target,
    )


def _pattern_params_from_args(args) -> dict:
    """Scenario ``pattern_params`` for the selected --pattern."""
    if args.pattern == "uniform":
        return {}
    return {
        "hotspot_fraction": args.hotspot_fraction,
        "hotspot_target": args.hotspot_target,
    }


def _registry_from_args(args):
    from .runs.registry import RunRegistry

    return RunRegistry(args.registry)


def _faults_from_args(args):
    """The Scenario ``faults`` mapping selected by the --kill-* flags.

    ``None`` (the fault-free fast path, byte-identical with older
    versions) unless at least one fault flag was given.
    """
    dead_links = [x.strip() for x in args.kill_links.split(",") if x.strip()]
    dead_switches = [x.strip() for x in args.kill_switches.split(",") if x.strip()]
    if not dead_links and not dead_switches and not args.random_link_failures:
        return None
    faults: dict = {}
    if dead_links:
        faults["dead_links"] = dead_links
    if dead_switches:
        faults["dead_switches"] = dead_switches
    if args.random_link_failures:
        faults["random_link_failures"] = args.random_link_failures
        faults["seed"] = args.fault_seed
    return faults


def _scenario_from_args(args):
    """The :class:`Scenario` described by the shared scenario flags.

    Flags a subcommand does not define (``repro check`` has no backend or
    measurement protocol) fall back to the Scenario defaults.
    """
    from .runs import Scenario

    return Scenario(
        topology=args.topology,
        num_processors=args.processors,
        children=args.children,
        parents=args.parents,
        levels=args.levels,
        dimension=args.dimension,
        radix=args.radix,
        message_flits=args.flits,
        flit_load=args.load,
        pattern=args.pattern,
        pattern_params=_pattern_params_from_args(args),
        backend=getattr(args, "backend", "batch"),
        sweep_points=getattr(args, "points", 8),
        simulator=getattr(args, "simulator", "event"),
        replications=getattr(args, "replications", 3),
        warmup_cycles=getattr(args, "warmup", 3000.0),
        measure_cycles=getattr(args, "measure", 9000.0),
        seed=getattr(args, "seed", 1),
        label=getattr(args, "label", ""),
        faults=_faults_from_args(args),
    )


# --- command handlers: each returns (text, json_payload[, exit_status]) -------------


def _cmd_check(args):
    from .analysis.model import analyze_scenario

    report = analyze_scenario(_scenario_from_args(args))
    return report.render(), report.to_json(), 0 if report.ok else 2


def _cmd_lint(args):
    from pathlib import Path

    from .analysis import lint as linter

    if args.list_rules:
        payload = {
            "rules": [
                {"rule": rule, "pragma": entry.pragma, "summary": entry.summary}
                for rule, entry in linter.RULE_CATALOG.items()
            ]
        }
        return linter.list_rules(), payload, 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise ConfigurationError(f"no such path: {missing[0]}")
    rules = linter.parse_rules(args.rules) if args.rules else None
    findings = linter.run_lint(args.paths, rules=rules)
    payload = json.loads(linter.report_json(args.paths, rules, findings))
    if findings:
        from .analysis.findings import render_findings

        text = "{}\n\n{} finding(s)".format(render_findings(findings), len(findings))
        return text, payload, 1
    checked = ", ".join(payload["rules"])
    return f"clean: {len(args.paths)} path(s), rules {checked}", payload, 0


def _cmd_run(args):
    from .runs import Runner

    scenario = _scenario_from_args(args)
    extra_provenance = None
    if args.check:
        from .analysis.model import analyze_scenario

        report = analyze_scenario(scenario)
        if not report.ok:
            first = report.errors()[0]
            raise ConfigurationError(
                f"pre-solve check failed ({len(report.errors())} error(s)); "
                f"first: {first.rule} at {first.location}: {first.message}"
            )
        extra_provenance = {"pre_solve_checks": report.to_json()}
    runner = Runner(registry=_registry_from_args(args) if args.save else None)
    if args.trace:
        from .obs import tracing

        with tracing() as tracer:
            result = runner.run(scenario, extra_provenance=extra_provenance)
        tracer.write(args.trace)
    else:
        result = runner.run(scenario, extra_provenance=extra_provenance)

    lines = [scenario.describe()]
    rows = []
    point = result.metrics.get("point") or {}
    for key in sorted(point):
        rows.append((f"point.{key}", point[key]))
    sat = result.metrics.get("saturation") or {}
    for key in ("injection_rate", "flit_load"):
        if key in sat:
            rows.append((f"saturation.{key}", sat[key]))
    faults = result.metrics.get("faults")
    if faults:
        rows.append(("faults.dead_links", ",".join(faults["dead_links"]) or "-"))
        rows.append(("faults.dead_terminals", len(faults["dead_terminals"])))
    # Per-phase wall times (build_s, saturation_s, evaluate_s/simulate_s,
    # total_s) — not just the total, which hid where a slow run spent it.
    for key in sorted(result.timings):
        rows.append((f"time.{key}", result.timings[key]))
    lines.append(format_table(["metric", "value"], rows, title=result.run_id))
    curve = result.metrics.get("curve")
    if curve:
        lines.append("")
        lines.append(
            format_table(
                ["load (fl/cyc/PE)", "latency (cycles)"],
                list(zip(curve["flit_loads"], curve["latencies"])),
                title=curve["label"],
            )
        )
    if args.save:
        lines.append(f"saved to {runner.registry.records_path} as {result.run_id}")
    return "\n".join(lines), result.to_json()


def _cmd_serve(args):
    import asyncio

    from .serve import ScenarioService

    service = ScenarioService(
        _registry_from_args(args),
        host=args.host,
        port=args.port,
        solver_threads=args.solver_threads,
    )

    async def _serve() -> None:
        await service.start()
        print(
            f"repro serve: listening on {service.address} "
            f"(registry: {service.cache.registry.path}); "
            "POST /solve, GET /stats, GET /health",
            flush=True,
        )
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return "repro serve: stopped", {"address": service.address}


def _cmd_runs(args):
    registry = _registry_from_args(args)
    if args.runs_command == "reindex":
        from .runs import RunIndex

        with RunIndex(registry) as index:
            indexed = index.rebuild()
            skipped = index.skipped
        text = (
            f"reindexed {registry.path}: {indexed} record(s) -> {index.path.name}"
            + (f" ({skipped} unindexable record(s) skipped)" if skipped else "")
        )
        return text, {
            "registry": str(registry.path),
            "index": str(index.path),
            "indexed": indexed,
            "skipped": skipped,
        }
    if args.runs_command == "list":
        if args.indexed:
            from .runs import RunIndex

            with RunIndex(registry) as index:
                records = index.query(
                    backend=args.backend, topology=args.topology, label=args.label
                )
        else:
            records = registry.query(
                backend=args.backend, topology=args.topology, label=args.label
            )
        rows = []
        for r in records:
            sc = r.scenario
            point = (r.metrics.get("point") or {}) if r.kind == "scenario" else {}
            sat = (r.metrics.get("saturation") or {}) if r.kind == "scenario" else {}
            rows.append(
                (
                    r.run_id,
                    r.kind,
                    sc.backend if sc else "-",
                    sc.topology if sc else "-",
                    sc.num_processors if sc else None,
                    sc.message_flits if sc else None,
                    sc.pattern if sc else "-",
                    point.get("latency"),
                    sat.get("flit_load"),
                    r.timings.get("build_s"),
                    r.timings.get("saturation_s"),
                    # Analytical backends time "evaluate", the simulator
                    # "simulate" — one column, whichever the run recorded.
                    r.timings.get("evaluate_s", r.timings.get("simulate_s")),
                    r.timings.get("total_s"),
                    r.label or "-",
                )
            )
        text = format_table(
            ["run id", "kind", "backend", "topology", "N", "flits", "pattern",
             "latency", "sat load", "build s", "sat s", "eval s", "total s",
             "label"],
            rows,
            title=f"{len(rows)} run(s) in {registry.path}",
        )
        if registry.skipped_versions:
            text += (
                f"\n({registry.skipped_versions} record(s) from another schema "
                "version skipped)"
            )
        if registry.skipped_corrupt:
            text += (
                f"\n({registry.skipped_corrupt} corrupted line(s) skipped; "
                "see `repro runs doctor`)"
            )
        return text, {
            "registry": str(registry.path),
            "runs": [r.to_json() for r in records],
            "skipped_versions": registry.skipped_versions,
            "skipped_corrupt": registry.skipped_corrupt,
        }
    if args.runs_command == "diff":
        diff = registry.diff(args.a, args.b)
        return diff.render(top=args.top), diff.to_json()
    if args.runs_command == "doctor":
        report = registry.doctor(quarantine=args.quarantine)
        return report.render(), report.to_json()
    if args.runs_command == "stats":
        from .runs import collect_stats

        report = collect_stats(
            registry.query(
                backend=args.backend, topology=args.topology, label=args.label
            ),
            source=str(registry.path),
        )
        return report.render(), report.to_json()
    raise ConfigurationError(f"unknown runs subcommand {args.runs_command!r}")


def _cmd_model(args):
    from .design import design_family
    from .design.evaluate import point_latency

    model = ButterflyFatTreeModel(args.processors)
    wl = Workload.from_flit_load(args.load, args.flits)
    spec = _spec_from_args(args)
    if spec is not None:
        pattern_model = design_family("bft").evaluator(
            {"processors": args.processors}, spec, args.flits
        )
        latency = point_latency(pattern_model, wl)
        rows = [("latency", latency), ("saturated", not (latency < float("inf")))]
        title = f"pattern={spec.name}, load={args.load} fl/cyc/PE"
    else:
        solution = model.solve(wl)
        rows = list(solution.breakdown().items())
        rows.append(("saturated", solution.saturated))
        title = f"load={args.load} fl/cyc/PE"
    text = "\n".join(
        [model.describe(), format_table(["component", "value"], rows, title=title)]
    )
    payload = {
        "num_processors": args.processors,
        "message_flits": args.flits,
        "flit_load": args.load,
        "pattern": args.pattern,
        "components": {k: v for k, v in rows},
    }
    return text, payload


def _cmd_info(args):
    topo = ButterflyFatTree(args.processors)
    info = describe_topology(topo)
    rows = [
        ("processors", info["processors"]),
        ("links", info["links"]),
    ]
    rows += sorted(info["links_per_class"].items())
    rows += [(f"groups of size {k}", v) for k, v in sorted(info["groups_by_size"].items())]
    text = "\n".join(
        [topo.describe(), format_table(["property", "value"], rows)]
    )
    return text, info


def _cmd_patterns(args):
    from .traffic.spec import pattern_descriptions

    descriptions = pattern_descriptions()
    rows = sorted(descriptions.items())
    text = format_table(
        ["pattern", "description"],
        rows,
        title="Registered traffic scenarios (usable as --pattern / --patterns)",
    )
    return text, {"patterns": dict(descriptions)}


def _split_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated integers, got {text!r}")


def _design_family_spaces(args) -> list:
    """Map the shared --sizes axis onto each requested family's parameters.

    Sizes a family cannot realize (e.g. 32 PEs for a power-of-four fat
    tree) are dropped for that family; a family left with no sizes at all
    is an error.
    """
    from .design import FamilySpace, design_family

    sizes = _split_ints(args.sizes, "--sizes")
    spaces = []
    for name in [f.strip() for f in args.families.split(",") if f.strip()]:
        fam = design_family(name)
        if name == "generalized-fattree":
            assignments = [
                {"children": args.children, "parents": args.parents, "levels": lv}
                for lv in (exact_exponent(args.children, n) for n in sizes)
                if lv is not None
            ]
        elif name == "kary-ncube":
            assignments = [
                {"radix": args.radix, "dimensions": d}
                for d in (exact_exponent(args.radix, n) for n in sizes)
                if d is not None
            ]
        else:
            assignments = [
                p for p in (fam.sizes_to_params(n) for n in sizes) if p is not None
            ]
        if not assignments:
            raise ConfigurationError(
                f"family {name!r} cannot realize any of the requested sizes {sizes}"
            )
        grid = {
            key: tuple(dict.fromkeys(a[key] for a in assignments))
            for key in fam.param_names
        }
        spaces.append(FamilySpace.build(name, **grid))
    return spaces


def _cmd_design(args):
    from .design import DesignSpace, Requirements, explore

    patterns = tuple(
        make_spec(
            name.strip(),
            hotspot_fraction=args.hotspot_fraction,
            hotspot_target=args.hotspot_target,
        )
        for name in args.patterns.split(",")
        if name.strip()
    )
    space = DesignSpace(
        families=tuple(_design_family_spaces(args)),
        message_lengths=tuple(_split_ints(args.flits, "--flits")),
        patterns=patterns,
        buffer_depths=tuple(_split_ints(args.buffer_depths, "--buffer-depths")),
    )
    requirements = Requirements(
        demand_flit_load=args.demand,
        latency_slo=args.slo,
        min_headroom=args.min_headroom,
        max_cost=args.max_cost,
        survives_faults=args.survive_faults,
        fault_seed=args.fault_seed,
    )
    result = explore(space, requirements, processes=args.processes)
    text = result.render()
    payload = result.to_json()
    if args.save:
        registry = _registry_from_args(args)
        record = result.to_run_result(label=args.label)
        registry.save(record)
        text += f"\nsaved to {registry.records_path} as {record.run_id}"
        payload = {"run_id": record.run_id, **payload}
    return text, payload


def _cmd_experiment(args):
    import os

    from . import experiments

    previous = os.environ.get("REPRO_FULL")
    if args.full:
        os.environ["REPRO_FULL"] = "1"
    try:
        if args.name in _CELL_LISTS:
            cells = getattr(experiments, _CELL_LISTS[args.name])()
            result = experiments.run_validation(cells=cells)
        else:
            result = getattr(experiments, _EXPERIMENTS[args.name])()
        text = result.render()
    finally:
        if previous is None:
            os.environ.pop("REPRO_FULL", None)
        else:
            os.environ["REPRO_FULL"] = previous
    return text, {"experiment": args.name, "full": args.full, "rendered": text}


def render_output(text: str, payload, *, as_json: bool) -> str:
    """The shared output formatter every subcommand goes through.

    ``--json`` emits the handler's structured payload (sorted keys,
    non-finite floats as the run-record sentinel strings); otherwise the
    handler's plain-text rendering is passed through unchanged.
    """
    if not as_json:
        return text
    from .runs.result import json_safe

    return json.dumps(json_safe(payload), indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "runs": _cmd_runs,
        "model": _cmd_model,
        "info": _cmd_info,
        "patterns": _cmd_patterns,
        "design": _cmd_design,
        "experiment": _cmd_experiment,
    }
    status = 0
    try:
        outcome = handlers[args.command](args)
        if len(outcome) == 3:
            text, payload, status = outcome
        else:
            text, payload = outcome
        try:
            print(render_output(text, payload, as_json=getattr(args, "json", False)))
        except BrokenPipeError:
            # Downstream pager/head closed the pipe; that is not an error.
            sys.stderr.close()
    except (ConfigurationError, SaturatedError, PartitionedNetworkError) as exc:
        # Invalid arguments / infeasible scenarios (including fault sets
        # that disconnect the network): argparse-style status 2 with a
        # one-line message, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
