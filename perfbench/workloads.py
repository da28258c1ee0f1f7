"""The four workloads: set-up, one timed operation, and the output checks.

==================  ======================================================
workload            what one operation is
==================  ======================================================
``served-hit``      one ``sample_many`` request the server answers from its
                    result cache (q=16 colouring, R=32, 10 rounds, sent by
                    fingerprint after one warm-up request).
``served-mutate``   ``MRF.without_edge`` on the next edge of a seeded
                    permutation, a ``sample_many`` submit of the new model
                    (full payload, cache miss, runs on the pool), then
                    ``/v1/invalidate`` of the predecessor.
``direct-coloring`` one in-process ``repro.run_spec`` pass over the
                    colouring job list (colouring kernels).
``direct-general``  one pass over the general-kernel job list (hardcore,
                    Ising, dominating-set CSP, the sequential fallback).
==================  ======================================================

The timed workloads run at ``WORKLOAD_SCALE`` (16x16 torus, n=256, m=512),
where an op takes 0.1-0.4 s and a run holds dozens of them; the traced
layer sweep runs the same job shapes at ``SWEEP_SCALE`` (64x64 torus,
n=4096, m=8192).  Every input but the mixing jobs' seed (``MIX_SEED``) is
derived from the workload seed.  Served workloads run the server in its
own process with two workers and drive it from one client thread plus one
health-probe thread.
"""

from __future__ import annotations

import resource
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from harness import (
    HealthProber,
    ServerProcess,
    coloring_feasible,
    digest,
    dominating_feasible,
    hardcore_feasible,
    torus_coloring,
)

SERVED_REPLICAS = 32
ROUNDS = 10
#: Seed of every mixing-time job.  The round at which a mixing job stops
#: depends on its seed (hardcore-mix: 9 to 21 rounds), so a seeded one
#: would change the work in a pass from one workload seed to the next.
MIX_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Model and batch sizes of a job list."""

    #: Side of the torus every model lives on: n = side**2, m = 2n.
    side: int
    #: Replicas of a direct sample job (the sequential fallback job's own count).
    replicas: int
    fallback_replicas: int
    #: Replicas of a mixing-time job.
    mix_replicas: int


#: The timed workloads: small enough that a run holds dozens of ops.
WORKLOAD_SCALE = Scale(side=16, replicas=16, fallback_replicas=1, mix_replicas=4096)
#: The traced layer sweep, at the ROADMAP's baseline size (n=4096, m=8192).
SWEEP_SCALE = Scale(side=64, replicas=64, fallback_replicas=4, mix_replicas=65536)


@dataclass
class DirectJob:
    """One job of a direct workload's fixed list."""

    name: str
    spec: object  # repro.JobSpec
    #: ``check(batch) -> bool`` for hard-constraint sample jobs, else None.
    feasible: Callable | None = None


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def coloring_jobs(seed: int, scale: Scale) -> list[DirectJob]:
    """The direct-coloring list: colouring kernels at R<<n and R>>n."""
    from repro import JobSpec
    from repro.graphs.generators import cycle_graph
    from repro.mrf import proper_coloring_mrf

    model = torus_coloring(scale.side)
    s = _seeds(seed, 3)

    def check(batch):
        return coloring_feasible(batch, model.graph)

    jobs = [
        DirectJob(f"coloring-{tag}", JobSpec.sample_many(
            model, scale.replicas, method=method, rounds=ROUNDS, seed=s[i]), check)
        for i, (tag, method) in enumerate(
            [("lm", "local-metropolis"), ("lg", "luby-glauber"), ("glauber", "glauber")]
        )
    ]
    jobs.append(DirectJob("coloring-mix", JobSpec.mixing_time(
        proper_coloring_mrf(cycle_graph(6), 3), eps=0.25, method="local-metropolis",
        replicas=scale.mix_replicas, seed=MIX_SEED)))
    return jobs


def general_jobs(seed: int, scale: Scale) -> list[DirectJob]:
    """The direct-general list: the general factor kernels and the fallback."""
    from repro import JobSpec
    from repro.csp.builders import dominating_set_csp
    from repro.graphs.generators import grid_graph, torus_graph
    from repro.mrf import hardcore_mrf, ising_mrf

    graph = torus_graph(scale.side, scale.side)
    hardcore = hardcore_mrf(graph, 0.5)
    ising = ising_mrf(graph, 0.2, 1.0)
    domset = dominating_set_csp(graph, 1.0)
    s = _seeds(seed, 6)

    def sample(model, method, seed_, replicas=scale.replicas):
        return JobSpec.sample_many(model, replicas, method=method, rounds=ROUNDS, seed=seed_)

    def hard(batch):
        return hardcore_feasible(batch, graph)

    def dominating(batch):
        return dominating_feasible(batch, graph)

    return [
        DirectJob("hardcore-lg", sample(hardcore, "luby-glauber", s[0]), hard),
        DirectJob("ising-lg", sample(ising, "luby-glauber", s[1])),
        DirectJob("ising-glauber", sample(ising, "glauber", s[2])),
        DirectJob("domset-lm", sample(domset, "local-metropolis", s[3]), dominating),
        DirectJob("domset-lg", sample(domset, "luby-glauber", s[4]), dominating),
        DirectJob("hardcore-lm-fallback", sample(
            hardcore, "local-metropolis", s[5], scale.fallback_replicas), hard),
        DirectJob("hardcore-mix", JobSpec.mixing_time(
            hardcore_mrf(grid_graph(3, 3), 0.5), eps=0.1, method="luby-glauber",
            replicas=scale.mix_replicas, seed=MIX_SEED)),
    ]


def warm_up_spec(spec):
    """A one-round version of a job: builds its engine and runs one round."""
    from repro import JobSpec

    if spec.kind == "sample_many":
        return replace(spec, rounds=1)
    return JobSpec.tv_curve(
        spec.model, [1], method=spec.method, replicas=spec.replicas, seed=spec.seed
    )


@dataclass
class Outcome:
    """Ops attempted, and the ops that errored or failed an output check."""

    attempted: int = 0
    failures: dict[object, list[str]] = field(default_factory=dict)

    def fail(self, op, note: str) -> None:
        """Record a failed check of ``op`` (an op index or a set-up label)."""
        self.failures.setdefault(op, []).append(note)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def merge(self, other: Outcome, prefix: str) -> None:
        self.attempted += other.attempted
        for op, notes in other.failures.items():
            self.failures[f"{prefix}:{op}"] = notes


class DirectWorkload:
    """In-process ``repro.run_spec`` passes over a fixed job list."""

    served = False

    def __init__(self, jobs_for_seed: Callable[[int, Scale], list[DirectJob]], seed: int) -> None:
        self._jobs_for_seed = jobs_for_seed
        self.seed = seed
        self.jobs: list[DirectJob] = []
        self.passes: list[dict[str, str]] = []
        self.first_results: dict[str, object] = {}

    def setup(self, trace_file=None) -> None:
        import repro

        self.jobs = self._jobs_for_seed(self.seed, WORKLOAD_SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", repro.FallbackEngineWarning)
            for job in self.jobs:
                repro.run_spec(warm_up_spec(job.spec))

    def op(self) -> None:
        import repro

        digests = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", repro.FallbackEngineWarning)
            for job in self.jobs:
                result = repro.run_spec(job.spec)
                digests[job.name] = digest(result)
                self.first_results.setdefault(job.name, result)
        self.passes.append(digests)

    def check(self, outcome: Outcome) -> None:
        """Repeated passes must agree bit for bit; samples must be feasible."""
        if not self.passes:
            return
        reference = self.passes[0]
        for index, digests in enumerate(self.passes[1:], start=1):
            if digests != reference:
                outcome.fail(index, "digest differs from pass 0")
        for job in self.jobs:
            if job.feasible is not None and not job.feasible(self.first_results[job.name]):
                outcome.fail(0, f"{job.name}: infeasible sample")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.passes.clear()
        self.first_results.clear()


class ServedWorkload:
    """Shared set-up of the two served workloads: server, spec, warm-up."""

    served = True

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spec_seed = int(rng.integers(2**31))
        self.edge_order_seed = int(rng.integers(2**31))
        self.server: ServerProcess | None = None
        self.prober: HealthProber | None = None

    def setup(self, trace_file=None) -> None:
        from repro import JobSpec

        self.model = torus_coloring(WORKLOAD_SCALE.side)
        self.spec = JobSpec.sample_many(
            self.model, SERVED_REPLICAS, rounds=ROUNDS, seed=self.spec_seed
        )
        self.server = ServerProcess(trace_file)
        self.client = self.server.client
        self.warm = self.client.submit(self.spec)

    def check(self, outcome: Outcome) -> None:
        """The warm-up response must equal ``repro.run_spec`` bit for bit."""
        import repro

        self.expected = repro.run_spec(self.spec)
        if not coloring_feasible(self.expected, self.model.graph):
            outcome.fail("setup", "direct result is not a proper colouring")
        if not np.array_equal(self.warm["result"], self.expected):
            outcome.fail("setup", "warm-up result differs from run_spec")

    def start_probes(self) -> None:
        self.prober = HealthProber(self.server.host, self.server.port).start()

    def stop_probes(self) -> None:
        if self.prober is not None:
            self.prober.stop()

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        self.stop_probes()
        if self.server is not None:
            self.server.close()
            self.server = None


class ServedHit(ServedWorkload):
    """The read path: repeated requests answered from the result cache."""

    def setup(self, trace_file=None) -> None:
        super().setup(trace_file)
        self.responses: list[dict] = []

    def op(self) -> None:
        self.responses.append(self.client.submit(self.spec))

    def check(self, outcome: Outcome) -> None:
        super().check(outcome)
        for index, response in enumerate(self.responses):
            if not response["cached"]:
                outcome.fail(index, "not served from cache")
            if not np.array_equal(response["result"], self.expected):
                outcome.fail(index, "result differs from run_spec")


class ServedMutate(ServedWorkload):
    """The write path: every op ships a new model and retires the old one.

    Op ``k`` removes edge ``k mod m`` of the seeded order from the base
    model, so the ops never run out of edges however fast they get.
    """

    def mutation_edges(self, model) -> list[tuple[int, int]]:
        """The model's edges in the seeded removal order."""
        edges = sorted(model.graph.edges())
        order = np.random.default_rng(self.edge_order_seed).permutation(len(edges))
        return [edges[i] for i in order]

    def setup(self, trace_file=None) -> None:
        super().setup(trace_file)
        self.edges = self.mutation_edges(self.model)
        self.current = self.model
        self.records: list[tuple[object, dict, int]] = []

    def op(self) -> None:
        edge = self.edges[len(self.records) % len(self.edges)]
        model = self.model.without_edge(*edge)
        spec = replace(self.spec, model=model)
        response = self.client.submit(spec)
        removed = self.client.invalidate(self.current)
        self.current = model
        self.records.append((spec, response, removed))

    def check(self, outcome: Outcome) -> None:
        import repro

        super().check(outcome)
        for index, (spec, response, removed) in enumerate(self.records):
            expected = repro.run_spec(spec)
            if not np.array_equal(response["result"], expected):
                outcome.fail(index, "result differs from run_spec")
            if not coloring_feasible(response["result"], spec.model.graph):
                outcome.fail(index, "result is not a proper colouring")
            if removed < 1:
                outcome.fail(index, "invalidate removed no entry")


WORKLOADS = {
    "served-hit": ServedHit,
    "served-mutate": ServedMutate,
    "direct-coloring": lambda seed: DirectWorkload(coloring_jobs, seed),
    "direct-general": lambda seed: DirectWorkload(general_jobs, seed),
}
