"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sample``
    Draw one approximate Gibbs sample of a named model on a named topology
    and print it (plus feasibility and the round budget used): one replica
    of the batched engine, or, with ``--engine``, the sequential chain or
    the LOCAL protocol.
``budget``
    Print the default round budgets of all three methods for a model.
``mix``
    Measure an ensemble-native TV-decay curve (and optionally the
    empirical mixing time) against the exact Gibbs distribution and emit
    it as JSON.  Needs ``q**n`` enumerable, so it defaults to a small
    topology.
``serve``
    Run the always-on sampling service (:mod:`repro.serve`): a persistent
    worker pool behind an HTTP/JSON API with result caching and admission
    control.
``submit``
    Build a :class:`~repro.spec.JobSpec` from the model arguments and
    submit it to a running service; ``--stream`` prints per-checkpoint
    events live.
``sweep``
    Expand a declarative TOML/JSON grid config (:mod:`repro.sweep`) into
    frozen :class:`~repro.spec.JobSpec` cells and run them — in-process,
    on a :class:`~repro.exec.jobs.JobRunner` pool (``--jobs N``) or
    against a running service (``--server``) — emitting one
    machine-readable ``repro.sweep/v1`` result table.
``dynamic``
    Demo of the dynamic-graph workflow (:mod:`repro.dynamic`): mix a
    model, then toggle edges/constraints while resampling only each
    mutation's influenced region, emitting the per-step region sizes and
    round budgets as JSON.
``info``
    Print the library's headline constants (thresholds, uniqueness
    boundary) and version.

The ``--model`` families (the models the paper's theorems address —
colourings, hardcore, Ising — plus list colourings and the CSP extensions
of both distributed chains) and the ``--graph`` topologies are the
registry of :mod:`repro.families`, which sweep grids read too; anything
richer should use the Python API.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro
from repro.api import _exact_distribution, model_degree
from repro.csp.model import LocalCSP
from repro.errors import ReproError
from repro.families import FAMILIES, GRAPHS, build_model, dispatch, methods_for, model_kind
from repro.mrf.model import MRF
from repro.spec import JOB_KINDS, JOB_PARAMS, JobSpec

__all__ = ["main", "build_parser"]


def _model(args: argparse.Namespace) -> MRF | LocalCSP:
    """The model the ``--model``/``--graph`` flags name, built by the registry."""
    entry = {"family": args.model, "graph": args.graph, "degree": args.degree}
    for param in FAMILIES[args.model].params:
        if param.cli:
            entry[param.name] = getattr(args, param.name)
    return build_model(entry, args.size, args.seed)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=tuple(FAMILIES),
        default="coloring",
        help="model family (repro.families.FAMILIES)",
    )
    parser.add_argument("--graph", choices=tuple(GRAPHS), default="cycle")
    parser.add_argument(
        "--size", type=int, default=16, help="vertices (side length for grid/torus)"
    )
    parser.add_argument("--degree", type=int, default=4, help="degree for regular graphs")
    # One flag per CLI parameter of the registry, with its one default.
    params = {p.name: p for family in FAMILIES.values() for p in family.params if p.cli}
    for param in params.values():
        users = ", ".join(f.name for f in FAMILIES.values() if param in f.params)
        parser.add_argument(
            f"--{param.name}", type=param.type, default=param.default,
            help=f"{param.help} ({users}; default %(default)s)",
        )
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed sampling in the LOCAL model (Feng-Sun-Yin, PODC 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="draw one approximate Gibbs sample")
    _add_model_arguments(sample)
    sample.add_argument("--method", choices=repro.METHODS, default="local-metropolis")
    sample.add_argument(
        "--engine",
        choices=repro.ENGINES,
        default=None,
        help="draw the single sample with an oracle: the sequential chain, or "
        "the LOCAL-model protocol on the reference (per-node) runtime "
        "(default: one replica of the batched engine)",
    )
    sample.add_argument("--eps", type=float, default=0.05)
    sample.add_argument("--rounds", type=int, default=None)
    sample.add_argument(
        "--samples",
        type=int,
        default=1,
        help="draw this many independent samples as one replica-ensemble batch",
    )
    sample.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard the sample batch across N worker processes "
        "(repro.exec; bit-identical for any N given the same seed)",
    )

    budget = sub.add_parser("budget", help="print default round budgets")
    _add_model_arguments(budget)
    budget.add_argument("--eps", type=float, default=0.05)

    mix = sub.add_parser(
        "mix", help="emit an ensemble-native TV-decay curve as JSON"
    )
    _add_model_arguments(mix)
    # The exact target enumerates q**n states, so mix defaults to a small
    # instance instead of the sampling commands' larger ones.
    mix.set_defaults(size=6, q=3)
    mix.add_argument("--method", choices=repro.METHODS, default="local-metropolis")
    mix.add_argument(
        "--replicas", type=int, default=512, help="ensemble size (TV noise floor "
        "scales like sqrt(q**n / replicas))"
    )
    mix.add_argument(
        "--checkpoints",
        default="1,2,4,8,16,32",
        help="comma-separated round counts at which to measure TV",
    )
    mix.add_argument(
        "--eps",
        type=float,
        default=argparse.SUPPRESS,
        help="also estimate the empirical mixing time tau(eps)",
    )
    mix.add_argument(
        "--max-rounds", type=int, default=argparse.SUPPRESS,
        help="mixing-time round budget (default: JobSpec.mixing_time's)",
    )
    mix.add_argument(
        "--stride", type=int, default=argparse.SUPPRESS,
        help="rounds between mixing-time checks (default: JobSpec.mixing_time's)",
    )
    mix.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard the measurement ensemble across N worker processes",
    )

    serve = sub.add_parser(
        "serve", help="run the always-on sampling service (repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731, help="0 binds an ephemeral port"
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument(
        "--cache-capacity", type=int, default=128, help="LRU result-cache entries"
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="additional LRU bound on the summed JSON size of cached "
        "results (default: unbounded)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="admission-control bound: in-flight jobs beyond this are "
        "rejected with HTTP 429",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="shut down after this long (default: run until interrupted)",
    )

    submit = sub.add_parser(
        "submit", help="submit a sampling job to a running service"
    )
    _add_model_arguments(submit)
    submit.add_argument(
        "--server", default="127.0.0.1:8731", metavar="HOST:PORT",
        help="address of a running `repro serve`",
    )
    submit.add_argument("--kind", choices=JOB_KINDS, default="sample_many")
    submit.add_argument("--method", choices=repro.METHODS, default="local-metropolis")
    submit.add_argument(
        "--replicas", type=int, default=8, help="replica count (batch rows for "
        "sample_many, ensemble size for the convergence kinds)",
    )
    # The job flags below are forwarded only when given, so JobSpec owns
    # their defaults and refuses one the --kind does not take.
    submit.add_argument(
        "--rounds", type=int, default=argparse.SUPPRESS,
        help="sample_many round count (default: the eps budget)",
    )
    submit.add_argument(
        "--eps", type=float, default=argparse.SUPPRESS,
        help="accuracy target (budget heuristic for sample_many, TV "
        "threshold for mixing_time)",
    )
    submit.add_argument(
        "--checkpoints", default=argparse.SUPPRESS,
        help="tv_curve rounds, comma-separated (a tv_curve job needs them)",
    )
    submit.add_argument(
        "--max-rounds", type=int, default=argparse.SUPPRESS,
        help="mixing_time round budget (default: JobSpec.mixing_time's)",
    )
    submit.add_argument(
        "--stride", type=int, default=argparse.SUPPRESS,
        help="rounds between mixing_time checks (default: JobSpec.mixing_time's)",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="stream per-checkpoint events instead of waiting silently",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="client timeout in seconds"
    )

    sweep = sub.add_parser(
        "sweep", help="run a declarative scenario sweep from a grid config"
    )
    sweep.add_argument(
        "--config", required=True, metavar="PATH",
        help="TOML or JSON sweep grid config (see repro.sweep)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="schedule cells onto a JobRunner pool of N worker processes "
        "(bit-identical to in-process execution)",
    )
    sweep.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="submit cells to a running `repro serve` instead of executing "
        "locally (its cache dedups repeats across sweeps)",
    )
    sweep.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the repro.sweep/v1 result table here (default: stdout)",
    )
    sweep.add_argument(
        "--no-checks", action="store_true",
        help="skip the per-cell stationarity/equivalence checks",
    )

    dynamic = sub.add_parser(
        "dynamic",
        help="demo: stream model mutations with incremental resampling",
    )
    _add_model_arguments(dynamic)
    dynamic.set_defaults(size=8)
    dynamic.add_argument("--method", choices=repro.METHODS, default="luby-glauber")
    dynamic.add_argument("--replicas", type=int, default=64)
    dynamic.add_argument(
        "--steps",
        type=int,
        default=3,
        help="mutation toggles: each step removes one edge (or constraint), "
        "resamples the influenced region, re-adds it and resamples again",
    )
    dynamic.add_argument(
        "--radius",
        type=int,
        default=2,
        help="influence radius around the touched vertices",
    )
    dynamic.add_argument("--eps", type=float, default=0.05)
    dynamic.add_argument(
        "--rounds", type=int, default=None, help="initial full-model mixing rounds"
    )
    dynamic.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the JSON event log to FILE",
    )

    sub.add_parser("info", help="print headline constants and version")

    # Every subcommand takes --trace: enable repro.obs (metric probes +
    # JSON-lines trace spans, propagated through exec workers and serve
    # submissions) and append the spans to FILE.
    for command_parser in sub.choices.values():
        command_parser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="enable repro.obs instrumentation; append trace spans to FILE",
        )
    return parser


def _command_sample(args: argparse.Namespace) -> int:
    model = _model(args)
    if args.samples < 1:
        raise ReproError(f"--samples must be >= 1, got {args.samples}")
    batched = args.samples > 1 or args.jobs is not None
    if args.engine is not None and batched:
        raise ReproError(
            "--engine applies to single samples; batched sampling always "
            "uses the replica-ensemble engines"
        )
    rounds = args.rounds
    if rounds is None:
        rounds = repro.default_round_budget(model, args.method, args.eps)
    model_line = (
        f"model   : {model.name} on {args.graph} "
        f"(n={model.n}, Delta={model_degree(model)})"
    )
    if args.engine is not None:
        engine = args.engine
        config = repro.sample(
            model,
            method=args.method,
            eps=args.eps,
            rounds=args.rounds,
            seed=args.seed,
            engine=engine,
        )
    else:
        batch = repro.sample_many(
            model,
            args.samples,
            method=args.method,
            eps=args.eps,
            rounds=args.rounds,
            seed=args.seed,
            parallel=args.jobs,
        )
        if batched:
            feasible = sum(1 for row in batch if model.is_feasible(row))
            jobs = "in-process" if args.jobs is None else str(args.jobs)
            print(model_line)
            print(
                f"method  : {args.method}   samples: {args.samples}   jobs: {jobs}   "
                f"rounds: {rounds}"
            )
            print(f"feasible: {feasible}/{args.samples}")
            print("sample 0:", " ".join(str(int(s)) for s in batch[0]))
            return 0
        engine, config = dispatch(model, args.method).ensemble.__name__, batch[0]
    print(model_line)
    print(f"method  : {args.method}   engine: {engine}   rounds: {rounds}")
    print(f"feasible: {model.is_feasible(config)}")
    print("sample  :", " ".join(str(int(s)) for s in config))
    return 0


def _command_budget(args: argparse.Namespace) -> int:
    model = _model(args)
    print(
        f"model: {model.name} (n={model.n}, Delta={model_degree(model)}), "
        f"eps={args.eps}"
    )
    kind = model_kind(model)
    for method in repro.METHODS:
        if method not in methods_for(kind):
            print(f"  {method:<17} {'n/a':>8} (no {kind.upper()} kernel)")
            continue
        budget = repro.default_round_budget(model, method, args.eps)
        print(f"  {method:<17} {budget:>8} rounds")
    return 0


def _command_mix(args: argparse.Namespace) -> int:
    model = _model(args)
    params = _job_params(args)
    # One exact target serves the curve and the mixing time.
    target = _exact_distribution(model)

    def run(kind: str):
        taken = {key: value for key, value in params.items() if key in JOB_PARAMS[kind]}
        spec = JobSpec.from_params(
            kind, model, taken, method=args.method, seed=args.seed, parallel=args.jobs
        )
        return spec.run(target=target)

    curve = run("tv_curve")
    engine = dispatch(model, args.method).ensemble.__name__
    payload = {
        "model": model.name,
        "graph": args.graph,
        "n": model.n,
        "q": model.q,
        "method": args.method,
        "engine": engine if args.jobs is None else "ShardedEnsemble",
        "replicas": args.replicas,
        "seed": args.seed,
        "curve": [[rounds, tv] for rounds, tv in curve],
    }
    if args.jobs is not None:
        payload["jobs"] = args.jobs
    if "eps" in params:
        payload["eps"] = params["eps"]
        payload["mixing_time"] = run("mixing_time")
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def _parse_checkpoints(raw: str) -> list[int]:
    try:
        return [int(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        raise ReproError(
            f"--checkpoints must be comma-separated integers, got {raw!r}"
        ) from None


def _command_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        cache_max_bytes=args.cache_max_bytes,
        max_pending=args.max_pending,
    )
    host, port = server.start()
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(workers={args.workers}, cache_capacity={args.cache_capacity}, "
        f"max_pending={args.max_pending})",
        flush=True,
    )
    try:
        if args.max_seconds is not None:
            time.sleep(args.max_seconds)
        else:  # pragma: no cover - interactive foreground loop
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("repro serve: interrupted", file=sys.stderr)
    finally:
        stats = server.stats()
        server.close()
    jobs = stats["jobs"]
    cache = stats["cache"]
    print(
        f"repro serve: shut down — {jobs['submitted']} submitted, "
        f"{jobs['completed']} completed, {jobs['failed']} failed, "
        f"{jobs['rejected']} rejected; cache {cache['hits']} hits / "
        f"{cache['misses']} misses"
    )
    return 0


def _job_params(args: argparse.Namespace) -> dict:
    """The job parameters (:data:`repro.spec.JOB_PARAMS` keys) the flags carry.

    A job flag without a default is in ``args`` only when given, so an
    unset one takes ``JobSpec``'s default.
    """
    keys = set().union(*JOB_PARAMS.values())
    params = {key: value for key, value in vars(args).items() if key in keys}
    if "checkpoints" in params:
        params["checkpoints"] = _parse_checkpoints(params["checkpoints"])
    return params


def _build_spec(args: argparse.Namespace, model: MRF | LocalCSP) -> JobSpec:
    return JobSpec.from_params(
        args.kind, model, _job_params(args), method=args.method, seed=args.seed
    )


def _command_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    host, _, port = args.server.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--server must be HOST:PORT, got {args.server!r}")
    model = _model(args)
    spec = _build_spec(args, model)
    with ServeClient(host, int(port), timeout=args.timeout) as client:
        if args.stream:
            document = None
            for event in client.stream(spec):
                if event["event"] == "accepted":
                    print(f"accepted: job {event['job_id']}", flush=True)
                elif event["event"] == "checkpoint":
                    print(
                        f"round {event['round']:>6}   tv {event['value']:.6f}",
                        flush=True,
                    )
                elif event["event"] == "result":
                    document = event
                elif event["event"] == "error":
                    raise ReproError(f"job failed: {event['message']}")
            if document is None:
                raise ReproError("stream ended without a result")
        else:
            document = client.submit(spec)
    result = document["result"]
    cached = "hit" if document.get("cached") else "miss"
    print(f"model  : {model.name} (n={model.n})")
    print(f"kind   : {spec.kind}   method: {spec.method}   cache: {cached}")
    if spec.kind == "sample_many":
        feasible = sum(1 for row in result if model.is_feasible(row))
        print(f"samples : {result.shape[0]} x {result.shape[1]}")
        print(f"feasible: {feasible}/{result.shape[0]}")
        print("sample 0:", " ".join(str(int(s)) for s in result[0]))
    elif spec.kind == "tv_curve":
        json.dump({"curve": [[rounds, tv] for rounds, tv in result]}, sys.stdout, indent=2)
        print()
    else:
        print(f"mixing_time: {result} rounds (eps={spec.eps})")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import load_grid, run_sweep

    if args.jobs is not None and args.server is not None:
        raise ReproError("--jobs and --server are mutually exclusive")
    grid = load_grid(args.config)
    if args.server is not None:
        mode, workers = "serve", 2
    elif args.jobs is not None:
        if args.jobs < 1:
            raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
        mode, workers = "jobs", args.jobs
    else:
        mode, workers = "local", 2
    sweep = run_sweep(
        grid,
        mode=mode,
        workers=workers,
        server=args.server,
        checks=not args.no_checks,
    )
    table = sweep.table
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(table, handle, indent=2)
            handle.write("\n")
    else:
        json.dump(table, sys.stdout, indent=2)
        print()
    counts = table["counts"]
    print(
        f"sweep {grid.name}: {counts['total']} cells — {counts['ok']} ok, "
        f"{counts['dedup']} dedup, {counts['error']} error ({mode} mode)",
        file=sys.stderr,
    )
    return 1 if counts["error"] else 0


def _command_dynamic(args: argparse.Namespace) -> int:
    from repro.dynamic import DynamicEnsemble, region_round_budget

    model = _model(args)
    if args.steps < 1:
        raise ReproError(f"--steps must be >= 1, got {args.steps}")
    is_csp = isinstance(model, LocalCSP)
    if is_csp and not model.compiled().num_constraints:
        raise ReproError("the dynamic demo needs a model with constraints")
    if not is_csp and not model.edges:
        raise ReproError("the dynamic demo needs a model with edges")
    dyn = DynamicEnsemble(
        model,
        args.replicas,
        method=args.method,
        eps=args.eps,
        radius=args.radius,
        seed=args.seed,
    )
    dyn.mix(args.rounds)
    full_budget = repro.default_round_budget(model, args.method, args.eps)
    events = []

    def toggle(op, detail):
        region = int(dyn.pending_region.size)
        rounds = region_round_budget(dyn.model, args.method, region, args.eps)
        dyn.resample()
        batch = dyn.config
        feasible = sum(1 for row in batch if dyn.model.is_feasible(row))
        events.append(
            {
                "op": op,
                "detail": detail,
                "region": region,
                "rounds": rounds,
                "full_rounds": full_budget,
                "feasible_fraction": feasible / len(batch),
                "fingerprint": dyn.model_fingerprint()[:16],
            }
        )

    for step in range(args.steps):
        if is_csp:
            # Toggle the tail constraint: re-appending the removed one
            # then restores the exact constraint order (and fingerprint).
            index = dyn.model.compiled().num_constraints - 1
            constraint = dyn.model.constraints[index]
            detail = list(int(v) for v in constraint.scope)
            dyn.remove_constraint(index)
            toggle("remove_constraint", detail)
            dyn.add_constraint(constraint)
            toggle("add_constraint", detail)
        else:
            u, v = model.edges[step % len(model.edges)]
            activity = model.edge_activity(u, v)
            dyn.remove_edge(u, v)
            toggle("remove_edge", [int(u), int(v)])
            dyn.add_edge(u, v, activity)
            toggle("add_edge", [int(u), int(v)])
    payload = {
        "model": model.name,
        "graph": args.graph,
        "n": model.n,
        "method": args.method,
        "engine": type(dyn.engine).__name__,
        "replicas": args.replicas,
        "radius": args.radius,
        "seed": args.seed,
        "mutations": dyn.mutations,
        "resamples": dyn.resamples,
        "restored_fingerprint": dyn.model_fingerprint() == model.model_fingerprint(),
        "events": events,
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def _command_info() -> int:
    from repro.analysis.theory import alpha_star, two_plus_sqrt2
    from repro.lowerbound import lambda_critical

    print(f"repro {repro.__version__} — 'What can be sampled locally?' (PODC 2017)")
    print(f"  LocalMetropolis colouring threshold (Thm 1.2): q > (2+sqrt2) Delta "
          f"= {two_plus_sqrt2():.6f} Delta")
    print(f"  easy local-coupling threshold (Lem 4.4): alpha* = {alpha_star():.6f}")
    print(f"  hardcore uniqueness threshold lambda_c(6) = {lambda_critical(6):.6f}"
          " (< 1: Thm 1.3 applies at Delta >= 6)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None):
        repro.obs.enable()
        repro.obs.enable_tracing(args.trace)
    try:
        with repro.obs.span(f"cli.{args.command}"):
            if args.command == "sample":
                return _command_sample(args)
            if args.command == "budget":
                return _command_budget(args)
            if args.command == "mix":
                return _command_mix(args)
            if args.command == "serve":
                return _command_serve(args)
            if args.command == "submit":
                return _command_submit(args)
            if args.command == "sweep":
                return _command_sweep(args)
            if args.command == "dynamic":
                return _command_dynamic(args)
            if args.command == "info":
                return _command_info()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if getattr(args, "trace", None):
            repro.obs.disable_tracing()
    return 2  # pragma: no cover - unreachable with required=True


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
