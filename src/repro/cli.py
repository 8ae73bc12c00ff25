"""Command-line interface: ``olsq2``.

Subcommands:

* ``compile``  — synthesize an OpenQASM 2.0 circuit onto a device,
* ``devices``  — list the built-in coupling graphs,
* ``generate`` — emit benchmark circuits (QAOA / QUEKO / QFT / ...) as QASM,
* ``bench``    — run one of the paper's experiment drivers,
* ``request``  — build a service CompileRequest JSON from a QASM file,
* ``serve``    — run a batch of CompileRequests through the async service.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .arch import devices
from .circuit.qasm import load_qasm
from .core.config import (
    BULK_MODES,
    SUBARCH_MODES,
    SUBARCH_OFF,
    TEMPLATE_MODES,
    SynthesisConfig,
)
from .core.registry import available_backends, resolve_backend
from .core.validator import validate_result
from .harness import experiments
from .workloads import qaoa_circuit, qft, queko_circuit, toffoli


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsq2",
        description="Scalable optimal layout synthesis (OLSQ2, DAC 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compile", help="synthesize a QASM circuit onto a device")
    comp.add_argument("qasm", help="path to an OpenQASM 2.0 file")
    comp.add_argument("--device", default="qx2", help="device name (see 'devices')")
    comp.add_argument(
        "--objective", choices=("depth", "swap"), default="depth"
    )
    comp.add_argument(
        "--synthesizer",
        choices=tuple(available_backends()),
        default="olsq2",
        help="backend from the registry (repro.core.registry)",
    )
    comp.add_argument("--swap-duration", type=int, default=3)
    comp.add_argument("--time-budget", type=float, default=600.0)
    comp.add_argument(
        "--kernel",
        choices=("auto", "python", "native"),
        default="auto",
        help="SAT-solver backend: 'native' requires the compiled kernel "
        "(python -m repro.sat.kernel.build), 'python' forces the pure "
        "interpreter loops, 'auto' picks native when built",
    )
    comp.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="run a cooperating portfolio of N worker processes "
        "(bound splitting + learnt-clause sharing); 0 = sequential",
    )
    comp.add_argument(
        "--subarch",
        choices=SUBARCH_MODES,
        default=SUBARCH_OFF,
        help="solve on an extracted circuit-width region of large devices: "
        "'auto' when the device is at least twice the circuit width, 'on' "
        "whenever it is strictly larger; results are translated back to "
        "full-device labels and re-validated (with --parallel, workers "
        "race distinct candidate regions while worker 0 proves bounds on "
        "the full device)",
    )
    comp.add_argument(
        "--warm-start",
        choices=("none", "sabre"),
        default="none",
        help="seed the descent with a validated SABRE schedule: its depth "
        "caps the relax ladder as a sound upper bound and its mapping "
        "seeds solver phases",
    )
    comp.add_argument(
        "--encode-bulk",
        choices=BULK_MODES,
        default="on",
        help="load encoder constraint families into the solver in bulk "
        "batches (byte-identical to per-clause loading; 'off' is a "
        "debugging escape hatch)",
    )
    comp.add_argument(
        "--templates",
        choices=TEMPLATE_MODES,
        default="on",
        help="with --parallel: encode each shared instance shape once and "
        "ship post-encode solver snapshots to the workers instead of "
        "re-encoding per process",
    )
    comp.add_argument(
        "--no-share",
        action="store_true",
        help="with --parallel: split bounds but do not share learnt clauses",
    )
    comp.add_argument(
        "--certify",
        action="store_true",
        help="attach a machine-checkable optimality certificate: validated "
        "model plus checked RUP refutations of the next-tighter bounds",
    )
    comp.add_argument("--output", help="write the mapped circuit as QASM here")
    comp.add_argument(
        "--trace",
        metavar="PATH",
        help="write a structured JSONL trace of the run to this path",
    )
    comp.add_argument(
        "--trace-summary",
        action="store_true",
        help="print a per-phase timing breakdown after synthesis",
    )
    comp.add_argument("--verbose", action="store_true")

    sub.add_parser("devices", help="list built-in coupling graphs")

    gen = sub.add_parser("generate", help="emit a benchmark circuit as QASM")
    gen.add_argument(
        "family", choices=("qaoa", "queko", "qft", "toffoli")
    )
    gen.add_argument("--qubits", type=int, default=8)
    gen.add_argument("--depth", type=int, default=5, help="QUEKO target depth")
    gen.add_argument("--gates", type=int, default=15, help="QUEKO gate count")
    gen.add_argument("--device", default="grid-3x3", help="QUEKO device")
    gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="run a paper experiment")
    bench.add_argument(
        "experiment",
        choices=("fig1", "table1", "table2", "table3", "table4", "speedup", "all"),
    )
    bench.add_argument("--timeout", type=float, default=120.0)
    bench.add_argument(
        "--output", help="for 'all': write a markdown report to this path"
    )

    ana = sub.add_parser(
        "analyze",
        help="lint a formula before solving: CNF hygiene, constraint-group "
        "structure, clause-sharing soundness (or, with --contracts, lint "
        "the repro source tree itself against its documented invariants)",
    )
    ana.add_argument(
        "path",
        nargs="?",
        default=None,
        help="a DIMACS .cnf file, or an OpenQASM 2.0 file to encode; with "
        "--contracts, the source directory to lint (default: src)",
    )
    ana.add_argument(
        "--contracts",
        action="store_true",
        help="run the project contract linter (repro.analysis.contracts) "
        "over the given source tree instead of linting a formula",
    )
    ana.add_argument(
        "--device", default="qx2", help="device for QASM input (see 'devices')"
    )
    ana.add_argument(
        "--horizon",
        type=int,
        default=0,
        help="encoding horizon for QASM input (0 = the T_UB heuristic)",
    )
    ana.add_argument(
        "--depth-bound",
        type=int,
        default=None,
        help="also build and lint the depth guard at this bound",
    )
    ana.add_argument(
        "--swap-bound",
        type=int,
        default=None,
        help="also build and lint the SWAP cardinality layer at this bound",
    )
    ana.add_argument(
        "--transition-based",
        action="store_true",
        help="lint the TB-OLSQ2 encoding instead of the time-resolved one",
    )
    ana.add_argument("--swap-duration", type=int, default=3)
    ana.add_argument(
        "--simplify",
        action="store_true",
        help="also run SatELite-style preprocessing on the formula and "
        "report the size reduction next to the lint diagnostics (the "
        "share prefix stays frozen for encoder input)",
    )

    sat = sub.add_parser("sat", help="solve a DIMACS CNF with the built-in solver")
    sat.add_argument("dimacs", help="path to a DIMACS .cnf file")
    sat.add_argument("--time-budget", type=float, default=300.0)
    sat.add_argument(
        "--certify", action="store_true", help="log and check a RUP proof on UNSAT"
    )
    sat.add_argument(
        "--preprocess", action="store_true", help="run SatELite-style preprocessing"
    )
    sat.add_argument(
        "--kernel",
        choices=("auto", "python", "native"),
        default="auto",
        help="solver backend (see 'compile --kernel')",
    )

    req = sub.add_parser(
        "request", help="build a service CompileRequest JSON from a QASM file"
    )
    req.add_argument("qasm", help="path to an OpenQASM 2.0 file")
    req.add_argument("--device", default="qx2", help="device name (see 'devices')")
    req.add_argument("--objective", choices=("depth", "swap"), default="depth")
    req.add_argument(
        "--backend", choices=tuple(available_backends()), default="olsq2"
    )
    req.add_argument(
        "--budget",
        type=float,
        default=None,
        help="per-request wall-time budget in seconds (over-budget requests "
        "return their best-so-far result flagged 'partial')",
    )
    req.add_argument("--swap-duration", type=int, default=None)
    req.add_argument("--time-budget", type=float, default=None)
    req.add_argument(
        "--config",
        metavar="JSON",
        help="full SynthesisConfig wire dict as JSON "
        "(overrides --swap-duration/--time-budget)",
    )
    req.add_argument("--request-id", default=None)
    req.add_argument("--output", help="write the request JSON here (default stdout)")

    srv = sub.add_parser(
        "serve", help="run a batch of CompileRequests through the async service"
    )
    srv.add_argument(
        "batch",
        help="JSON file holding a list of CompileRequest dicts (or "
        '{"requests": [...]}); \'-\' reads stdin',
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent solver worker processes (0 = solve inline)",
    )
    srv.add_argument(
        "--max-pending", type=int, default=64, help="admission queue bound"
    )
    srv.add_argument(
        "--output",
        help="write the CompileResponse list as JSON here (default stdout)",
    )
    srv.add_argument(
        "--stats",
        action="store_true",
        help="print cache/dispatch/queue statistics to stderr afterwards",
    )
    srv.add_argument(
        "--trace",
        metavar="PATH",
        help="write a structured JSONL event trace of the service run",
    )
    srv.add_argument(
        "--kernel",
        choices=("auto", "python", "native"),
        default=None,
        help="force a solver backend for every request in the batch "
        "(overrides each request's config; see 'compile --kernel')",
    )
    return parser


def _cmd_compile(args) -> int:
    from .telemetry import JsonlSink, MemorySink, StderrSink, Tracer

    circuit = load_qasm(args.qasm)
    device = devices.by_name(args.device)
    tracer = None
    memory = None
    if args.trace or args.trace_summary or args.verbose:
        sinks = []
        if args.trace:
            sinks.append(JsonlSink(args.trace))
        if args.trace_summary:
            memory = MemorySink()
            sinks.append(memory)
        if args.verbose:
            sinks.append(StderrSink())
        tracer = Tracer(sinks=sinks)
    try:
        if args.parallel > 0:
            from .core import ParallelDescent, PortfolioEntry, default_portfolio

            base = default_portfolio(
                swap_duration=args.swap_duration, time_budget=args.time_budget
            )
            entries = [
                PortfolioEntry(
                    f"{base[i % len(base)].name}#{i}",
                    base[i % len(base)].config.replace(
                        kernel=args.kernel,
                        subarch=args.subarch,
                        encode_bulk=args.encode_bulk,
                        templates=args.templates,
                        warm_start=(
                            None if args.warm_start == "none" else args.warm_start
                        ),
                    ),
                    args.synthesizer == "tb-olsq2",
                )
                for i in range(args.parallel)
            ]
            synthesizer = ParallelDescent(
                entries=entries,
                time_budget=args.time_budget,
                share=not args.no_share,
                tracer=tracer,
                certify=args.certify,
            )
            result = synthesizer.synthesize(
                circuit, device, objective=args.objective
            )
        else:
            config = SynthesisConfig(
                swap_duration=args.swap_duration,
                time_budget=args.time_budget,
                solve_time_budget=args.time_budget / 2,
                tracer=tracer,
                certify=args.certify,
                kernel=args.kernel,
                subarch=args.subarch,
                encode_bulk=args.encode_bulk,
                templates=args.templates,
                warm_start=(
                    None if args.warm_start == "none" else args.warm_start
                ),
            )
            synthesizer = resolve_backend(args.synthesizer, config)
            result = synthesizer.synthesize(
                circuit, device, objective=args.objective
            )
    finally:
        if tracer is not None:
            tracer.close()
    validate_result(result)
    print(result.summary())
    print(f"initial mapping: {result.initial_mapping}")
    status = 0
    if args.certify:
        certificate = result.certificate
        if certificate is None:
            print("no certificate produced (synthesizer does not support one)")
            status = 1
        else:
            print(certificate.summary())
            if not certificate.complete:
                status = 1
    if args.trace:
        print(f"trace written to {args.trace}")
    if memory is not None:
        from .harness import trace_summary

        print(trace_summary(memory))
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(result.to_physical_circuit().to_qasm())
        print(f"mapped circuit written to {args.output}")
    return status


def _cmd_devices(_args) -> int:
    rows = [
        devices.ibm_qx2(),
        devices.rigetti_aspen4(),
        devices.google_sycamore(),
        devices.ibm_eagle(),
        devices.grid(3, 3),
        devices.linear(5),
    ]
    print(f"{'name':<12} {'qubits':>6} {'edges':>5}")
    for dev in rows:
        print(f"{dev.name:<12} {dev.n_qubits:>6} {dev.num_edges:>5}")
    print("also: grid-RxC, line-N, ring-N, full-N")
    return 0


def _cmd_generate(args) -> int:
    if args.family == "qaoa":
        circuit = qaoa_circuit(args.qubits, seed=args.seed)
    elif args.family == "queko":
        device = devices.by_name(args.device)
        circuit = queko_circuit(device, args.depth, args.gates, seed=args.seed).circuit
    elif args.family == "qft":
        circuit = qft(args.qubits)
    else:
        circuit = toffoli(max(2, args.qubits - 1) // 2 + 1)
    sys.stdout.write(circuit.to_qasm())
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "all":
        from .harness.report import generate_report

        text = generate_report(budget=args.timeout)
        if args.output:
            with open(args.output, "w") as fp:
                fp.write(text)
            print(f"report written to {args.output}")
        else:
            print(text)
        return 0
    runners = {
        "fig1": lambda: experiments.run_fig1(timeout=args.timeout),
        "table1": lambda: experiments.run_table1(timeout=args.timeout),
        "table2": lambda: experiments.run_table2(timeout=args.timeout),
        "table3": lambda: experiments.run_table3(time_budget=args.timeout),
        "table4": lambda: experiments.run_table4(time_budget=args.timeout),
        "speedup": lambda: experiments.run_speedup_summary(time_budget=args.timeout),
    }
    headers, rows, notes = runners[args.experiment]()
    experiments.print_experiment(headers, rows, notes, args.experiment)
    return 0


def _cmd_analyze(args) -> int:
    """Lint a CNF file, or encode a QASM circuit and lint the encoding.

    With ``--contracts``, lint the project's own source tree against its
    documented invariants instead (see repro.analysis.contracts).
    """
    if args.contracts:
        from .analysis.contracts import main as contracts_main

        return contracts_main([args.path or "src"])
    if args.path is None:
        print("error: analyze needs a path (or --contracts)")
        return 2

    from .analysis import lint_cnf, lint_encoder

    if args.path.endswith((".cnf", ".dimacs")):
        from .sat.dimacs import read_dimacs

        try:
            with open(args.path) as fp:
                cnf = read_dimacs(fp)
        except ValueError as exc:
            print(f"error: parse: {exc}")
            return 1
        report = lint_cnf(cnf, simplify=args.simplify)
    else:
        circuit = load_qasm(args.path)
        device = devices.by_name(args.device)
        horizon = args.horizon
        if horizon <= 0:
            from .circuit.dag import depth_upper_bound

            horizon = max(2, depth_upper_bound(circuit))
        config = SynthesisConfig(swap_duration=args.swap_duration)
        report = lint_encoder(
            circuit,
            device,
            horizon,
            config=config,
            transition_based=args.transition_based,
            depth_bound=args.depth_bound,
            swap_bound=args.swap_bound,
            simplify=args.simplify,
        )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_sat(args) -> int:
    from .sat import SatResult, Solver, check_unsat_proof, lit_to_dimacs, preprocess
    from .sat.dimacs import read_dimacs
    from .sat.preprocess import Unsatisfiable

    with open(args.dimacs) as fp:
        cnf = read_dimacs(fp)
    print(f"c parsed {cnf.n_vars} vars, {cnf.num_clauses} clauses")
    recon = None
    formula = cnf
    if args.preprocess:
        try:
            formula, recon = preprocess(cnf)
        except Unsatisfiable:
            print("s UNSATISFIABLE")
            print("c (refuted during preprocessing)")
            return 20
        print(f"c preprocessed to {formula.num_clauses} clauses")
    solver = Solver(
        proof_log=args.certify and not args.preprocess, kernel=args.kernel
    )
    formula.to_solver(solver)
    status = solver.solve(time_budget=args.time_budget)
    if status is SatResult.UNKNOWN:
        print("s UNKNOWN")
        return 0
    if status is SatResult.SAT:
        model = recon.extend(solver.model) if recon else solver.model
        print("s SATISFIABLE")
        lits = [
            lit_to_dimacs(2 * v + (0 if model[v] else 1))
            for v in range(cnf.n_vars)
        ]
        print("v " + " ".join(str(l) for l in lits) + " 0")
        return 10
    print("s UNSATISFIABLE")
    if args.certify and solver.proof is not None:
        ok = check_unsat_proof(formula, solver.proof)
        print(f"c proof check: {'VERIFIED' if ok else 'FAILED'}")
        if not ok:
            return 1
    return 20


def _cmd_request(args) -> int:
    """Client mode: serialize one CompileRequest for a later ``serve`` run."""
    import json

    from .service import CompileRequest

    circuit = load_qasm(args.qasm)
    if args.config:
        config = json.loads(args.config)
        SynthesisConfig.from_dict(config)  # fail fast on a typo'd knob
    else:
        knobs = {}
        if args.swap_duration is not None:
            knobs["swap_duration"] = args.swap_duration
        if args.time_budget is not None:
            knobs["time_budget"] = args.time_budget
        config = SynthesisConfig(**knobs).to_dict() if knobs else None
    request = CompileRequest.from_circuit(
        circuit,
        args.device,
        objective=args.objective,
        backend=args.backend,
        budget=args.budget,
        config=config,
        request_id=args.request_id,
    )
    text = json.dumps(request.to_dict(), indent=2)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text + "\n")
        print(f"request written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    """Run a request batch through the async service and emit responses."""
    import asyncio
    import json

    from .service import CompileRequest
    from .service.server import serve_batch

    if args.batch == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.batch) as fp:
            data = json.load(fp)
    if isinstance(data, dict):
        data = data.get("requests", [])
    if not isinstance(data, list):
        print("error: batch must be a JSON list of CompileRequest dicts")
        return 1
    if args.kernel is not None:
        # Force one solver backend batch-wide; requests' configs keep
        # every other knob they specified.
        data = [
            {**d, "config": {**(d.get("config") or {}), "kernel": args.kernel}}
            for d in data
        ]
    try:
        requests = [CompileRequest.from_dict(d) for d in data]
    except (TypeError, ValueError) as exc:
        print(f"error: bad request in batch: {exc}")
        return 1

    tracer = None
    if args.trace:
        from .telemetry import JsonlSink, Tracer

        tracer = Tracer(sinks=[JsonlSink(args.trace)])
    try:
        responses, stats = asyncio.run(
            serve_batch(
                requests,
                n_workers=args.workers,
                max_pending=args.max_pending,
                tracer=tracer,
            )
        )
    finally:
        if tracer is not None:
            tracer.close()

    payload = json.dumps([r.to_dict() for r in responses], indent=2)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(payload + "\n")
        print(f"{len(responses)} responses written to {args.output}")
    else:
        print(payload)
    if args.stats:
        print(
            f"requests={stats['requests']} "
            f"dispatches={stats['solver_dispatches']} "
            f"cache_hits={stats['cache_hits']} "
            f"coalesced={stats['coalesced']} "
            f"errors={stats['errors']} "
            f"max_queue_depth={stats['max_queue_depth']} "
            f"bank_clauses_served={stats['pool']['bank_clauses_served']}",
            file=sys.stderr,
        )
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0 if all(r.ok for r in responses) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "devices": _cmd_devices,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "analyze": _cmd_analyze,
        "sat": _cmd_sat,
        "request": _cmd_request,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
