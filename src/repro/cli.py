"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sample``
    Draw one approximate Gibbs sample of a named model on a named topology
    and print it (plus feasibility and the round budget used).
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

The CLI covers the models the paper's theorems address (colourings,
hardcore, Ising) plus the CSP extensions of both distributed chains
(``dominating-set``, ``mis``, ``nae`` hypergraph colourings) on the
standard experiment topologies; anything richer should use the Python
API.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro
from repro.api import model_degree
from repro.csp import (
    dominating_set_csp,
    maximal_independent_set_csp,
    not_all_equal_csp,
)
from repro.csp.model import LocalCSP
from repro.errors import ReproError
from repro.graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    torus_graph,
)
from repro.mrf import hardcore_mrf, ising_mrf, proper_coloring_mrf
from repro.mrf.model import MRF
from repro.spec import JOB_KINDS, JobSpec

__all__ = ["main", "build_parser"]

#: Weighted-local-CSP model specs: built by ``_build_model`` and dispatched
#: through the same ``repro.sample`` / ``repro.make_ensemble`` facade as
#: MRFs (the CSP remarks after Algorithms 1-2).
CSP_MODELS = ("dominating-set", "mis", "nae")


def _build_graph(args: argparse.Namespace):
    kind = args.graph
    size = args.size
    if kind == "path":
        return path_graph(size)
    if kind == "cycle":
        return cycle_graph(size)
    if kind == "grid":
        return grid_graph(size, size)
    if kind == "torus":
        return torus_graph(size, size)
    if kind == "regular":
        return random_regular_graph(args.degree, size, seed=args.seed)
    raise ReproError(f"unknown graph kind {kind!r}")


def _nae_csp(graph, q: int) -> LocalCSP:
    """Hypergraph colouring: NAE constraint on every inclusive neighbourhood.

    The scope of vertex ``v`` is ``Gamma+(v) = {v} union Gamma(v)`` (deduped
    across vertices); on a cycle this is the 3-uniform NAE-hypergraph the
    CSP ensemble benchmark (E15) measures.
    """
    scopes = sorted(
        {
            tuple(sorted({v, *graph.neighbors(v)}))
            for v in range(graph.number_of_nodes())
            if graph.degree(v) >= 1
        }
    )
    if not scopes:
        raise ReproError("nae needs a graph with at least one edge")
    return not_all_equal_csp(scopes, n=graph.number_of_nodes(), q=q)


def _build_model(args: argparse.Namespace) -> MRF | LocalCSP:
    graph = _build_graph(args)
    if args.model == "coloring":
        return proper_coloring_mrf(graph, args.q)
    if args.model == "hardcore":
        return hardcore_mrf(graph, args.fugacity)
    if args.model == "ising":
        return ising_mrf(graph, args.beta)
    if args.model == "dominating-set":
        return dominating_set_csp(graph, weight=args.weight)
    if args.model == "mis":
        return maximal_independent_set_csp(graph)
    if args.model == "nae":
        return _nae_csp(graph, args.q)
    raise ReproError(f"unknown model {args.model!r}")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=("coloring", "hardcore", "ising", *CSP_MODELS),
        default="coloring",
        help="MRF models (coloring/hardcore/ising) or weighted local CSPs "
        "(dominating-set, mis, nae hypergraph colouring on inclusive "
        "neighbourhoods)",
    )
    parser.add_argument(
        "--graph",
        choices=("path", "cycle", "grid", "torus", "regular"),
        default="cycle",
    )
    parser.add_argument(
        "--size", type=int, default=16, help="vertices (side length for grid/torus)"
    )
    parser.add_argument("--degree", type=int, default=4, help="degree for regular graphs")
    parser.add_argument(
        "--q", type=int, default=8, help="colours for colouring/nae models"
    )
    parser.add_argument("--fugacity", type=float, default=1.0, help="hardcore lambda")
    parser.add_argument("--beta", type=float, default=1.5, help="Ising edge activity")
    parser.add_argument(
        "--weight", type=float, default=1.0, help="per-pick weight for dominating-set"
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
        default="chain",
        help="execution engine: direct chain, or the LOCAL-model protocol "
        "on the reference (per-node) or vectorized (array) runtime",
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
        default=None,
        help="also estimate the empirical mixing time tau(eps)",
    )
    mix.add_argument(
        "--max-rounds", type=int, default=4096, help="mixing-time round budget"
    )
    mix.add_argument(
        "--stride", type=int, default=1, help="rounds between mixing-time checks"
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
    submit.add_argument("--rounds", type=int, default=None)
    submit.add_argument(
        "--eps", type=float, default=None,
        help="accuracy target (budget heuristic for sample_many, TV "
        "threshold for mixing_time)",
    )
    submit.add_argument(
        "--checkpoints", default="1,2,4,8,16,32",
        help="tv_curve rounds, comma-separated",
    )
    submit.add_argument("--max-rounds", type=int, default=4096)
    submit.add_argument("--stride", type=int, default=1)
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
    model = _build_model(args)
    if args.samples < 1:
        raise ReproError(f"--samples must be >= 1, got {args.samples}")
    rounds = args.rounds
    if rounds is None:
        rounds = repro.default_round_budget(model, args.method, args.eps)
    model_line = (
        f"model   : {model.name} on {args.graph} "
        f"(n={model.n}, Delta={model_degree(model)})"
    )
    if args.samples == 1 and args.jobs is None:
        config = repro.sample(
            model,
            method=args.method,
            eps=args.eps,
            rounds=args.rounds,
            seed=args.seed,
            engine=args.engine,
        )
        print(model_line)
        print(f"method  : {args.method}   engine: {args.engine}   rounds: {rounds}")
        print(f"feasible: {model.is_feasible(config)}")
        print("sample  :", " ".join(str(int(s)) for s in config))
        return 0
    if args.engine != "chain":
        raise ReproError(
            "--engine applies to single samples; batched sampling always "
            "uses the replica-ensemble engines"
        )
    batch = repro.sample_many(
        model,
        args.samples,
        method=args.method,
        eps=args.eps,
        rounds=args.rounds,
        seed=args.seed,
        parallel=args.jobs,
    )
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


def _command_budget(args: argparse.Namespace) -> int:
    model = _build_model(args)
    print(
        f"model: {model.name} (n={model.n}, Delta={model_degree(model)}), "
        f"eps={args.eps}"
    )
    for method in repro.METHODS:
        if isinstance(model, LocalCSP) and method == "glauber":
            print(f"  {method:<17} {'n/a':>8} (no CSP kernel)")
            continue
        budget = repro.default_round_budget(model, method, args.eps)
        print(f"  {method:<17} {budget:>8} rounds")
    return 0


def _command_mix(args: argparse.Namespace) -> int:
    from repro.analysis.convergence import ensemble_tv_curve
    from repro.csp.model import exact_csp_gibbs_distribution
    from repro.mrf.distribution import exact_gibbs_distribution

    model = _build_model(args)
    checkpoints = _parse_checkpoints(args.checkpoints)
    if isinstance(model, LocalCSP):
        target = exact_csp_gibbs_distribution(model)
    else:
        target = exact_gibbs_distribution(model)
    ensemble = repro.make_ensemble(
        model, args.replicas, method=args.method, seed=args.seed, parallel=args.jobs
    )
    try:
        curve = ensemble_tv_curve(ensemble, target, checkpoints=checkpoints)
    finally:
        if args.jobs is not None:
            ensemble.close()
    payload = {
        "model": model.name,
        "graph": args.graph,
        "n": model.n,
        "q": model.q,
        "method": args.method,
        "engine": type(ensemble).__name__,
        "replicas": args.replicas,
        "seed": args.seed,
        "curve": [[rounds, tv] for rounds, tv in curve],
    }
    if args.jobs is not None:
        payload["jobs"] = args.jobs
    if args.eps is not None:
        payload["eps"] = args.eps
        payload["mixing_time"] = repro.mixing_time(
            model,
            args.eps,
            method=args.method,
            replicas=args.replicas,
            max_rounds=args.max_rounds,
            stride=args.stride,
            seed=args.seed,
            target=target,
            parallel=args.jobs,
        )
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


def _submit_backend() -> str | None:
    """The backend name a submitted spec should carry.

    The local commands resolve ``$REPRO_BACKEND`` inside the engines; a
    submitted job executes on the *server*, so the client's environment
    must be folded into the spec explicitly.  The numpy default stays
    ``None`` — it is bit-identical, and naming it would gratuitously
    require the server to know the name.
    """
    from repro.backend import resolve_backend_name

    name = resolve_backend_name(None)
    return None if name == "numpy" else name


def _build_spec(args: argparse.Namespace, model: MRF | LocalCSP) -> JobSpec:
    backend = _submit_backend()
    if args.kind == "sample_many":
        return JobSpec.sample_many(
            model,
            args.replicas,
            method=args.method,
            eps=args.eps if args.eps is not None else 0.05,
            rounds=args.rounds,
            seed=args.seed,
            backend=backend,
        )
    if args.kind == "tv_curve":
        return JobSpec.tv_curve(
            model,
            _parse_checkpoints(args.checkpoints),
            method=args.method,
            replicas=args.replicas,
            seed=args.seed,
            backend=backend,
        )
    return JobSpec.mixing_time(
        model,
        eps=args.eps if args.eps is not None else 0.125,
        method=args.method,
        replicas=args.replicas,
        max_rounds=args.max_rounds,
        stride=args.stride,
        seed=args.seed,
        backend=backend,
    )


def _command_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    host, _, port = args.server.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--server must be HOST:PORT, got {args.server!r}")
    model = _build_model(args)
    spec = _build_spec(args, model)
    client = ServeClient(host, int(port), timeout=args.timeout)
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

    model = _build_model(args)
    if args.steps < 1:
        raise ReproError(f"--steps must be >= 1, got {args.steps}")
    is_csp = isinstance(model, LocalCSP)
    if is_csp and not model.constraints:
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
            index = len(dyn.model.constraints) - 1
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
