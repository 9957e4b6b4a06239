"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``characterize``
    Monte-Carlo characterize library cells and write the Liberty-like
    JSON tables.
``analyze``
    Run the statistical STA on a benchmark circuit (or a structural
    Verilog file) and print the critical path with its sigma-level
    quantiles. With ``--batch``, compile the design once
    (:mod:`repro.core.sta_compiled`) and evaluate a whole grid of
    (input slew × launch edge) scenarios in one vectorized pass.
``serve``
    Boot the resident STA service (:mod:`repro.serve`): register one
    or more circuits, keep their compiled engines warm, and answer
    concurrent scenario-grid queries over a unix socket and/or HTTP.
``query``
    Talk to a running service: scenario-grid queries, ``--stats``,
    ``--designs``.
``pack`` / ``unpack`` / ``inspect``
    Produce, expand and audit the mmap-able binary ``.rpk`` artifacts
    (:mod:`repro.pack`): ``pack`` compiles circuits (and optionally the
    characterized library) into single-file packs that ``serve --pack``
    and the compile cache load by mmap + digest verify;
    ``unpack`` emits the equivalent plain-JSON document; ``inspect``
    prints the manifest and re-verifies every segment digest.
``cells``
    List the synthetic library with pin caps and Pelgrom coefficients.
``lint``
    Static checks over flow artifacts (SPEF, Verilog, characterization
    and model JSON) and, with ``--codebase``, the package source
    itself. See ``docs/lint.md`` for the rule catalogue.

All commands accept ``--seed`` and the Monte-Carlo fidelity knobs; run
``python -m repro <command> --help`` for details.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.units import FF, PS
from repro.variation.parameters import Technology, VariationModel


def _add_flow_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--samples", type=int, default=1000,
                        help="MC samples per characterization point")
    parser.add_argument("--cache-dir", default=".repro_cache",
                        help="characterization/model cache directory")
    parser.add_argument("--vdd", type=float, default=0.6,
                        help="supply voltage in volts")
    parser.add_argument("--cells", default="",
                        help="comma-separated cell subset (default: all)")
    parser.add_argument("--fast", action="store_true",
                        help="coarse grid / small wire fit for quick looks")
    parser.add_argument("--workers", type=int, default=None,
                        help="characterization worker processes "
                             "(default: $REPRO_WORKERS or 1; 0 = all cores)")
    parser.add_argument("--kernel", default=None,
                        help="transient-solver kernel backend: numpy or "
                             "cnative (default: $REPRO_KERNEL or numpy; an "
                             "unavailable backend falls back to numpy with "
                             "a warning)")
    parser.add_argument("--surrogate", default=None,
                        help="characterization surrogate: 'gp' enables "
                             "active-learning GP characterization (simulate "
                             "a few grid points, predict the rest), 'off' "
                             "forces dense (default: $REPRO_SURROGATE or "
                             "dense)")
    parser.add_argument("--perf", action="store_true",
                        help="print solver/stage performance counters")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="extra attempts per characterization task after "
                             "a failure (retries reuse the task seed, so "
                             "results stay bit-identical)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-attempt wall-clock budget in seconds for "
                             "each characterization task (default: none)")
    parser.add_argument("--quarantine-budget", type=int, default=0,
                        help="how many quarantined arcs the run tolerates "
                             "before exiting nonzero (-1 = unlimited)")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="resume from per-arc checkpoints in --cache-dir "
                             "(--no-resume recomputes every arc)")
    parser.add_argument("--journal", default="",
                        help="append a JSONL run journal to this path "
                             "(task/retry/quarantine/checkpoint events; "
                             "lint it with `repro lint <path>`)")


def _make_flow(args):
    from repro.core.flow import DelayCalibrationFlow
    from repro.kernels import KERNEL_ENV

    if getattr(args, "kernel", None):
        # Export the choice so version_salt() and any process that
        # re-resolves from the environment agree with this run.
        os.environ[KERNEL_ENV] = args.kernel
    tech = Technology().at_vdd(args.vdd)
    cells = [c.strip() for c in args.cells.split(",") if c.strip()] or None
    extra = {}
    if args.fast:
        extra = {
            "slews": (10 * PS, 80 * PS, 250 * PS),
            "loads": (0.1 * FF, 1.0 * FF, 4.0 * FF, 9.0 * FF),
            "wire_fit_samples": 200,
            "wire_fit_trees": 1,
        }
    budget = args.quarantine_budget
    return DelayCalibrationFlow(
        tech=tech,
        variation=VariationModel(),
        seed=args.seed,
        cache_dir=args.cache_dir,
        n_samples=args.samples,
        cell_names=cells,
        workers=args.workers,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        quarantine_budget=None if budget is not None and budget < 0 else budget,
        resume=args.resume,
        journal=args.journal or None,
        kernel=getattr(args, "kernel", None),
        surrogate=getattr(args, "surrogate", None),
        **extra,
    )


def _print_perf(flow) -> None:
    print()
    print(flow.perf_report().summary())


def cmd_characterize(args) -> int:
    """Characterize library cells and write Liberty-like JSON tables."""
    from repro.cells.liberty import save_library_characterization
    from repro.errors import ReproError

    flow = _make_flow(args)
    print(f"Characterizing {len(flow.cell_names)} cells at "
          f"{flow.tech.vdd} V with {flow.n_samples} samples/point ...")
    try:
        charac = flow.characterize()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_library_characterization(charac, args.output)
    print(f"Wrote {len(charac)} arc tables to {args.output}")
    for q in charac.quarantined:
        print(f"warning: quarantined arc {'/'.join(q.arc_key)} "
              f"({q.error_type}: {q.message})", file=sys.stderr)
    if args.perf:
        _print_perf(flow)
    return 0


def cmd_cells(args) -> int:
    """Print the synthetic library with pin caps and Pelgrom scales."""
    from repro.cells.library import build_default_library

    tech = Technology().at_vdd(args.vdd)
    library = build_default_library(tech)
    print(f"{'cell':<10} {'inputs':<8} {'stack':>5} {'pinA cap(fF)':>13} "
          f"{'Pelgrom scale':>14}")
    for cell in library:
        print(f"{cell.name:<10} {','.join(cell.inputs):<8} {cell.n_stack:>5} "
              f"{cell.input_cap('A', tech) / FF:>13.3f} "
              f"{cell.variability_scale():>14.3f}")
    return 0


def _parse_batch_scenarios(args):
    """Build the Scenario list of ``analyze --batch`` from the CLI knobs."""
    from repro.core.sta_compiled import Scenario

    slews = [float(s) for s in args.batch_slews.split(",") if s.strip()]
    edges = []
    for token in args.batch_edges.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in ("rise", "fall"):
            raise ValueError(f"--batch-edges entries must be rise/fall, got {token!r}")
        edges.append(token == "rise")
    return [
        Scenario(input_slew=s * PS, launch_rising=e)
        for s in (slews or [args.input_slew])
        for e in (edges or [True])
    ]


def _resolve_circuit(name: str, tech, width: int, parasitic_seed: int):
    """Resolve a circuit spec shared by ``analyze`` and ``serve``.

    ``name`` is a Verilog file path, an ISCAS85 profile name, or a
    PULPino unit (ADD/SUB/MUL/DIV). Returns the parasitic-annotated
    circuit, or ``None`` after printing a usage error.
    """
    from repro.netlist.benchmarks import (
        ISCAS85_PROFILES,
        attach_parasitics,
        build_iscas85_like,
        build_pulpino_unit,
    )
    from repro.netlist.verilog import read_verilog

    if Path(name).exists():
        circuit = read_verilog(name)
    elif name in ISCAS85_PROFILES:
        circuit = build_iscas85_like(name)
    elif name.upper() in ("ADD", "SUB", "MUL", "DIV"):
        circuit = build_pulpino_unit(name.upper(), width)
    else:
        print(f"error: {name!r} is neither a file, an ISCAS85 profile "
              f"({', '.join(ISCAS85_PROFILES)}) nor a PULPino unit", file=sys.stderr)
        return None
    attach_parasitics(circuit, tech, seed=parasitic_seed)
    return circuit


def cmd_analyze(args) -> int:
    """Statistical STA on a benchmark circuit or Verilog file."""
    from repro.core.sta import StatisticalSTA

    flow = _make_flow(args)
    circuit = _resolve_circuit(
        args.circuit, flow.tech, args.width, args.parasitic_seed
    )
    if circuit is None:
        return 2
    print(f"Circuit: {circuit}")

    print("Fitting models (cached) ...")
    models = flow.fit_models()

    from repro.core.report import format_path_report, format_stage_budget

    if args.batch:
        from repro.cache import JsonCache
        from repro.core.sta_compiled import CompiledSTA

        try:
            scenarios = _parse_batch_scenarios(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        engine = CompiledSTA(circuit, models, cache=JsonCache(args.cache_dir),
                             perf=flow.perf)
        results = engine.analyze_batch(scenarios)
        print(f"Compiled: {engine.design.n_levels} levels, "
              f"{engine.design.n_arcs} arcs, "
              f"{engine.design.arcs.n_arcs} packed arc rows")
        for scenario, result in zip(scenarios, results):
            edge = "rise" if scenario.launch_rising else "fall"
            quantiles = "  ".join(
                f"{n:+d}s={result.critical_path.total(n) / PS:.1f}ps"
                for n in scenario.levels
            )
            print(f"slew {scenario.input_slew / PS:5.1f} ps {edge:<4} "
                  f"-> {quantiles}")
        worst = max(results, key=lambda r: r.critical_delay)
        print()
        print(format_path_report(worst, max_stages=args.max_stages))
    else:
        result = StatisticalSTA(circuit, models,
                                input_slew=args.input_slew * PS).analyze()
        print()
        print(format_path_report(result, max_stages=args.max_stages))
        print()
        print(format_stage_budget(result.critical_path))
    if args.perf:
        _print_perf(flow)
    return 0


def cmd_lint(args) -> int:
    """Run lint rules over artifacts and/or the package source.

    Exit codes: 0 clean, 1 findings (ERROR severity by default;
    warnings too under ``--strict``), 2 usage errors. With
    ``--baseline``, only findings *not* in the baseline count.
    """
    import repro.lint as lint

    if args.list_rules:
        layer_width = max(len(r.layer) for r in lint.all_rules())
        for rule in lint.all_rules():
            print(f"{rule.rule_id:<8} {rule.layer:<{layer_width}} "
                  f"{rule.severity.name.lower():<8} {rule.summary}")
        return 0
    if not args.paths and not args.codebase and not args.deep:
        print("error: nothing to lint — give artifact paths, --codebase "
              "and/or --deep", file=sys.stderr)
        return 2

    report = lint.LintReport()
    for path in args.paths:
        if not Path(path).exists():
            print(f"error: no such artifact: {path}", file=sys.stderr)
            return 2
        if args.deep:
            # Deep mode lints *source* (a .py file or a source tree).
            p = Path(path)
            if p.is_dir() or p.suffix == ".py":
                report.extend(lint.lint_deep(p))
            else:
                report.extend(lint.lint_artifact(path))
        else:
            report.extend(lint.lint_artifact(path))
    if args.codebase:
        report.extend(lint.lint_codebase())
        if args.deep:
            report.extend(lint.lint_deep())
    if args.deep and not args.paths and not args.codebase:
        report.extend(lint.lint_deep())

    disabled = {r.strip() for r in args.disable.split(",") if r.strip()}
    if disabled:
        report = report.suppress(disabled)

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        lint.Baseline.from_report(report).save(args.baseline)
        print(f"baseline written: {args.baseline} "
              f"({len(report.diagnostics)} accepted finding(s))")
        return 0
    if args.baseline:
        baseline = lint.Baseline.load(args.baseline)
        report, matched = baseline.filter_new(report)
        stale = len(baseline) - matched
        if stale:
            print(f"note: {stale} baseline entr"
                  f"{'y' if stale == 1 else 'ies'} no longer fire(s) — "
                  f"refresh with --update-baseline", file=sys.stderr)

    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(lint.sarif_json(report))
    else:
        print(report.format_text())
    failing = report.errors if not args.strict \
        else report.errors + report.warnings
    return 0 if not failing else 1


def cmd_serve(args) -> int:
    """Boot the resident STA service over one or more circuits."""
    from repro.cache import JsonCache
    from repro.errors import ReproError
    from repro.serve import DesignRegistry, STAServer, ServeConfig

    if args.socket is None and args.host is None:
        print("error: serve needs --socket PATH and/or --host HOST",
              file=sys.stderr)
        return 2

    flow = _make_flow(args)
    print("Fitting models (cached) ...")
    models = flow.fit_models()

    budget = (
        int(args.lru_mb * 1024 * 1024) if args.lru_mb is not None else None
    )
    registry = DesignRegistry(
        cache=JsonCache(args.cache_dir),
        perf=flow.perf,
        budget_bytes=budget,
    )
    for name in args.circuits:
        circuit = _resolve_circuit(
            name, flow.tech, args.width, args.parasitic_seed
        )
        if circuit is None:
            return 2
        key = registry.register(circuit.name, circuit, models)
        print(f"Registered {circuit.name} (key {key[:12]}...)")

    if args.pack:
        pack_dir = Path(args.pack)
        for name in registry.names():
            rpk = pack_dir / f"{name}.rpk"
            if not rpk.exists():
                continue
            if registry.attach_pack(name, rpk):
                print(f"Attached pack {rpk} ({name} cold-loads by mmap)")
            else:
                print(f"warning: refused pack {rpk} for {name} (corrupt "
                      f"or stale; the design will compile instead)",
                      file=sys.stderr)

    config = ServeConfig(
        max_concurrency=args.concurrency,
        queue_depth=args.queue_depth,
        default_deadline_s=args.deadline,
        max_scenarios=args.max_scenarios,
    )
    server = STAServer(registry, config, perf=flow.perf)

    def _ready() -> None:
        endpoint = args.socket if args.socket else f"{args.host}:{server.port}"
        print(f"Serving {len(registry.names())} design(s) on {endpoint} "
              f"(concurrency {config.max_concurrency}, "
              f"queue {config.queue_depth})", flush=True)
        if args.ready_file:
            Path(args.ready_file).write_text(endpoint + "\n")

    try:
        server.run(socket_path=args.socket, host=args.host, port=args.port,
                   ready=_ready)
    except KeyboardInterrupt:
        pass
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Drop the readiness marker on the way out (SIGTERM/SIGINT drain
        # included) so supervisors never see a stale ready file from a
        # server that is no longer listening.
        if args.ready_file:
            Path(args.ready_file).unlink(missing_ok=True)
        if args.journal:
            flow.perf.journal.close()
    if args.perf:
        _print_perf(flow)
    return 0


def cmd_pack(args) -> int:
    """Compile circuits into mmap-able ``.rpk`` design packs."""
    from repro.cache import JsonCache
    from repro.core.sta_compiled import COMPILE_CACHE_KIND, compile_design
    from repro.errors import ReproError
    from repro.pack import copy_pack, pack_library_characterization

    flow = _make_flow(args)
    out_dir = Path(args.output)
    print("Fitting models (cached) ...")
    try:
        models = flow.fit_models()
        cache = JsonCache(args.cache_dir)
        for name in args.circuits:
            circuit = _resolve_circuit(
                name, flow.tech, args.width, args.parasitic_seed
            )
            if circuit is None:
                return 2
            design = compile_design(circuit, models, cache=cache,
                                    perf=flow.perf)
            # The compile cache already holds this design's pack.
            path = copy_pack(
                cache.pack_path(COMPILE_CACHE_KIND, design.cache_key),
                out_dir / f"{circuit.name}.rpk",
            )
            print(f"Wrote {path} ({path.stat().st_size} bytes, "
                  f"{design.arcs.n_arcs} packed arc rows)")
        if args.library:
            charac = flow.characterize()
            path = out_dir / "library.rpk"
            pack_library_characterization(charac, path, perf=flow.perf)
            print(f"Wrote {path} ({path.stat().st_size} bytes, "
                  f"{len(charac)} arc tables)")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.perf:
        _print_perf(flow)
    return 0


def cmd_unpack(args) -> int:
    """Expand a ``.rpk`` pack into the equivalent plain-JSON document."""
    import json as _json

    from repro.errors import PackError
    from repro.pack import PackFile, delist_document

    try:
        pack = PackFile.open(args.file, verify=not args.no_verify)
    except PackError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    text = _json.dumps(delist_document(pack.document()), sort_keys=True,
                       indent=2)
    if args.output and args.output != "-":
        Path(args.output).write_text(text + "\n")
        print(f"Wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_inspect(args) -> int:
    """Print a pack's header, meta and segment table; verify digests."""
    from repro.errors import PackError
    from repro.pack import PackFile

    try:
        pack = PackFile.open(args.file, verify=False)
    except PackError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: repro-pack v{pack.version} kind={pack.kind}")
    print(f"  identity {pack.identity()}  manifest sha256 "
          f"{pack.manifest_sha256[:16]}...")
    print(f"  {pack.nbytes} file bytes, {pack.tensor_nbytes} tensor bytes "
          f"in {len(pack.segments)} segment(s)")
    for key in sorted(pack.meta):
        print(f"  meta.{key} = {pack.meta[key]}")
    if pack.segments:
        print(f"  {'segment':<44} {'dtype':<6} {'shape':<16} {'bytes':>12}")
        for record in pack.segments:
            shape = "x".join(str(d) for d in record["shape"]) or "()"
            print(f"  {record['name']:<44} {record['dtype']:<6} "
                  f"{shape:<16} {record['nbytes']:>12}")
    try:
        pack.verify()
    except PackError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    print(f"  digests OK ({len(pack.segments)} segment(s) verified)")
    return 0


def cmd_query(args) -> int:
    """Query a running STA service (see ``repro serve``)."""
    from repro.errors import ReproError
    from repro.serve import QueryRequest, ServeClient
    from repro.moments.stats import SIGMA_LEVELS

    try:
        client = ServeClient(socket_path=args.socket, host=args.host,
                             port=args.port, timeout=args.timeout)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.stats:
            import json as _json
            print(_json.dumps(client.stats(), indent=2))
            return 0
        if args.designs:
            for name in client.designs():
                print(name)
            return 0
        if not args.design:
            print("error: give a design name, --stats or --designs",
                  file=sys.stderr)
            return 2

        slews = tuple(
            float(s) for s in args.slews.split(",") if s.strip()
        ) or (20.0,)
        edges = tuple(
            e.strip().lower() for e in args.edges.split(",") if e.strip()
        ) or ("rise",)
        levels = tuple(
            int(n) for n in args.levels.split(",") if n.strip()
        ) or SIGMA_LEVELS
        correlations: tuple = (None,)
        if args.correlations:
            correlations = tuple(
                None if token.strip() in ("fit", "none") else float(token)
                for token in args.correlations.split(",") if token.strip()
            ) or (None,)
        request = QueryRequest(
            design=args.design,
            slews_ps=slews,
            edges=edges,
            levels=levels,
            correlations=correlations,
            deadline_s=args.deadline,
        )
        response = client.query(request)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not response.ok:
        print(f"error [{response.code}]: {response.error}", file=sys.stderr)
        for diag in response.diagnostics:
            print(f"  {diag}", file=sys.stderr)
        return 1
    print(f"{response.design} ({response.n_scenarios} scenario(s), "
          f"{response.served_s * 1e3:.1f} ms served)")
    for result in response.results:
        rho = "fit" if result.correlation is None else f"{result.correlation}"
        quantiles = "  ".join(
            f"{n:+d}s={q / PS:.1f}ps" for n, q in sorted(result.quantiles_s.items())
        )
        print(f"slew {result.slew_ps:6.1f} ps {result.edge:<4} rho={rho:<5} "
              f"-> {result.endpoint} ({result.n_stages} stages)  {quantiles}")
    return 0


def cmd_kernels(args) -> int:
    """Probe and list the kernel backends on this machine."""
    from repro.kernels import available_backends, default_backend

    selected = default_backend().name
    print(f"{'backend':<10} {'available':<10} detail")
    for entry in available_backends():
        marker = "*" if entry["name"] == selected else " "
        print(f"{marker}{entry['name']:<9} {entry['available']:<10} {entry['detail']}")
    print(f"\n* = selected by the current environment "
          f"($REPRO_KERNEL or the numpy default)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="N-sigma delay calibration (DATE 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="characterize library cells")
    _add_flow_args(p)
    p.add_argument("-o", "--output", default="library_lvf.json",
                   help="output JSON path")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("cells", help="list the synthetic cell library")
    p.add_argument("--vdd", type=float, default=0.6)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("analyze", help="statistical STA on a circuit")
    _add_flow_args(p)
    p.add_argument("circuit",
                   help="ISCAS85 name (c432...), PULPino unit (ADD/SUB/MUL/DIV), "
                        "or a structural Verilog file")
    p.add_argument("--width", type=int, default=16,
                   help="operand width for PULPino units")
    p.add_argument("--input-slew", type=float, default=20.0,
                   help="primary-input slew in ps")
    p.add_argument("--parasitic-seed", type=int, default=1,
                   help="seed of the synthetic parasitics")
    p.add_argument("--max-stages", type=int, default=40,
                   help="truncate the path report after this many stages")
    p.add_argument("--batch", action="store_true",
                   help="use the compiled vectorized engine and evaluate the "
                        "scenario grid of --batch-slews x --batch-edges")
    p.add_argument("--batch-slews", default="",
                   help="comma-separated input slews in ps for --batch "
                        "(default: --input-slew only)")
    p.add_argument("--batch-edges", default="rise",
                   help="comma-separated launch edges (rise,fall) for --batch")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve", help="boot the resident STA query service")
    _add_flow_args(p)
    p.add_argument("circuits", nargs="+",
                   help="circuits to serve: ISCAS85 names, PULPino units "
                        "(ADD/SUB/MUL/DIV) or structural Verilog files")
    p.add_argument("--width", type=int, default=16,
                   help="operand width for PULPino units")
    p.add_argument("--parasitic-seed", type=int, default=1,
                   help="seed of the synthetic parasitics")
    p.add_argument("--socket", default=None,
                   help="unix-socket path to listen on (newline-JSON)")
    p.add_argument("--host", default=None,
                   help="HTTP listen host (e.g. 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="HTTP listen port (0 = ephemeral)")
    p.add_argument("--concurrency", type=int, default=4,
                   help="queries executing simultaneously")
    p.add_argument("--queue-depth", type=int, default=32,
                   help="admitted-but-waiting queries before rejecting busy")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-query deadline in seconds")
    p.add_argument("--lru-mb", type=float, default=None,
                   help="resident compiled-design budget in MiB "
                        "(default: unbounded)")
    p.add_argument("--max-scenarios", type=int, default=4096,
                   help="per-request scenario-grid ceiling")
    p.add_argument("--ready-file", default="",
                   help="write the bound endpoint here once listening "
                        "(for supervisors/CI); removed again on shutdown")
    p.add_argument("--pack", default="",
                   help="directory of <design>.rpk packs (see `repro pack`) "
                        "attached as mmap cold-load sources; stale or "
                        "corrupt packs are refused with a warning")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("pack",
                       help="compile circuits into mmap-able .rpk packs")
    _add_flow_args(p)
    p.add_argument("circuits", nargs="+",
                   help="circuits to pack: ISCAS85 names, PULPino units "
                        "(ADD/SUB/MUL/DIV) or structural Verilog files")
    p.add_argument("--width", type=int, default=16,
                   help="operand width for PULPino units")
    p.add_argument("--parasitic-seed", type=int, default=1,
                   help="seed of the synthetic parasitics")
    p.add_argument("-o", "--output", default="packs",
                   help="output directory for the <design>.rpk files")
    p.add_argument("--library", action="store_true",
                   help="also write the characterized library bundle "
                        "as library.rpk")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("unpack",
                       help="expand a .rpk pack to its plain-JSON document")
    p.add_argument("file", help=".rpk pack path")
    p.add_argument("-o", "--output", default="-",
                   help="output JSON path (- = stdout)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the per-segment digest verification")
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("inspect",
                       help="print a .rpk pack's manifest and verify digests")
    p.add_argument("file", help=".rpk pack path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("query", help="query a running STA service")
    p.add_argument("design", nargs="?", default="",
                   help="registered design name to query")
    p.add_argument("--socket", default=None,
                   help="unix-socket endpoint of the server")
    p.add_argument("--host", default=None, help="HTTP host of the server")
    p.add_argument("--port", type=int, default=None,
                   help="HTTP port of the server")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client socket timeout in seconds")
    p.add_argument("--slews", default="20",
                   help="comma-separated input slews in ps")
    p.add_argument("--edges", default="rise",
                   help="comma-separated launch edges (rise,fall)")
    p.add_argument("--levels", default="-3,-2,-1,0,1,2,3",
                   help="comma-separated sigma levels")
    p.add_argument("--correlations", default="",
                   help="comma-separated stage correlations in [0,1] "
                        "('fit' = the fitted value)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--stats", action="store_true",
                   help="print the server's live counters and exit")
    p.add_argument("--designs", action="store_true",
                   help="list the registered designs and exit")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("kernels", help="probe the available kernel backends")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("lint", help="static checks on artifacts and source")
    p.add_argument("paths", nargs="*",
                   help="artifact files to lint (.spef, .v, .json); with "
                        "--deep, also source dirs / .py files")
    p.add_argument("--codebase", action="store_true",
                   help="also run the code rules over the repro package")
    p.add_argument("--deep", action="store_true",
                   help="run the dataflow rule families (DET/CKY/UNT/RES) "
                        "over source paths (default: the repro package)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings too, not just errors")
    p.add_argument("--baseline", default="",
                   help="baseline file: only findings not in it fail the run")
    p.add_argument("--update-baseline", action="store_true",
                   help="accept all current findings into --baseline and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="diagnostic output format")
    p.add_argument("--disable", default="",
                   help="comma-separated rule IDs to suppress")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
