"""Model families and engine dispatch: the two tables every front end reads.

:data:`FAMILIES` decides what a family name builds: its builder, its model
kind (``"mrf"`` or ``"csp"``) and its typed parameters, each with one
default.  With the topologies of :data:`GRAPHS`, :func:`build_model` builds
the models of both the CLI flags and sweep ``[[sweep.models]]`` entries.

:data:`DISPATCH` decides which engine runs a (model, method) pair: (model
kind, method, optional predicate) → batched replica engine, sequential
chain and LOCAL-protocol runner.  :func:`dispatch`, :func:`validate_method`
and the one budget formula :func:`round_budget` read it for the facade,
every :class:`~repro.spec.JobSpec` and the CLI.  A new family is one
entry and a new engine one row; the test-suite's law matrix is generated
from both tables.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.chains.csp_chains import LocalMetropolisCSP, LubyGlauberCSP
from repro.chains.ensemble import (
    EnsembleGlauberDynamics, EnsembleLocalMetropolis, EnsembleLocalMetropolisColoring,
    EnsembleLubyGlauber,
)
from repro.chains.glauber import GlauberDynamics
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.chains.luby_glauber import LubyGlauberChain
from repro.csp.builders import (
    coloring_csp, dominating_set_csp, maximal_independent_set_csp, not_all_equal_csp,
)
from repro.csp.model import LocalCSP
from repro.errors import ModelError
from repro.graphs import cycle_graph, grid_graph, path_graph, random_regular_graph, torus_graph
from repro.mrf import hardcore_mrf, ising_mrf, list_coloring_mrf, proper_coloring_mrf
from repro.mrf.model import MRF
from repro.serialize import wire_int, wire_number

__all__ = [
    "DISPATCH", "FAMILIES", "GRAPHS", "METHODS", "EngineRow", "Family", "Param",
    "build_model", "dispatch", "methods_for", "model_degree", "model_kind",
    "round_budget", "validate_method",
]

#: The sampling methods, each with the factor besides ``log(size / eps)`` in
#: its round budget for a full run and for a region re-mix: 1 (Theorem 1.2),
#: the degree plus one (Theorem 1.1) or the size (the Dobrushin bound of
#: Glauber).  Region re-mixes run the heat-bath kernels (a clamped
#: LocalMetropolis round has no stationarity guarantee), so a
#: LocalMetropolis region scales like LubyGlauber.
_BUDGET_SCALES = {
    "local-metropolis": ("one", "degree"),
    "luby-glauber": ("degree", "degree"),
    "glauber": ("size", "size"),
}
METHODS = tuple(_BUDGET_SCALES)


@dataclass(frozen=True)
class Param:
    """A typed family parameter and its one default; ``cli``: exposed as ``--<name>``."""

    name: str
    type: type
    default: object
    help: str
    cli: bool = True


@dataclass(frozen=True)
class Family:
    """A model family: ``build(graph, seed, **params)``, its kind and parameters."""

    name: str
    kind: str
    build: Callable[..., MRF | LocalCSP]
    params: tuple[Param, ...] = ()


Q = Param("q", int, 8, "colours")
FUGACITY = Param("fugacity", float, 1.0, "hardcore lambda")
BETA = Param("beta", float, 1.5, "Ising edge activity")
WEIGHT = Param("weight", float, 1.0, "per-pick weight")
LIST_SIZE = Param("list_size", int, None, "colours per list (max(2, q - 1))", cli=False)


def _list_coloring(graph, seed, q: int, list_size: int | None) -> MRF:
    """List colouring; the per-vertex lists derive from ``seed`` only."""
    if list_size is None:
        list_size = max(2, q - 1)
    if not 1 <= list_size <= q:
        raise ModelError(f"list-coloring list_size must be in 1..{q}, got {list_size}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lists = {
        v: sorted(rng.choice(q, size=list_size, replace=False).tolist())
        for v in range(graph.number_of_nodes())
    }
    return list_coloring_mrf(graph, q, lists)


def _nae(graph, seed, q: int) -> LocalCSP:
    """Hypergraph colouring: NAE constraint on every inclusive neighbourhood.

    The scope of vertex ``v`` is ``Gamma+(v) = {v} union Gamma(v)``, sorted
    and deduplicated across vertices; isolated vertices get none.  On a
    cycle this is the 3-uniform NAE hypergraph the CSP ensemble benchmark
    (E15) measures.
    """
    n = graph.number_of_nodes()
    scopes = sorted(
        {tuple(sorted({v, *graph.neighbors(v)})) for v in range(n) if graph.degree(v) >= 1}
    )
    if not scopes:
        raise ModelError("nae needs a graph with at least one edge")
    return not_all_equal_csp(scopes, n=n, q=q)


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("coloring", "mrf", lambda graph, seed, q: proper_coloring_mrf(graph, q), (Q,)),
        Family("hardcore", "mrf", lambda graph, seed, fugacity: hardcore_mrf(graph, fugacity),
               (FUGACITY,)),
        Family("ising", "mrf", lambda graph, seed, beta: ising_mrf(graph, beta), (BETA,)),
        Family("list-coloring", "mrf", _list_coloring, (Q, LIST_SIZE)),
        Family("coloring-csp", "csp", lambda graph, seed, q: coloring_csp(graph, q), (Q,)),
        Family("nae", "csp", _nae, (Q,)),
        Family("dominating-set", "csp",
               lambda graph, seed, weight: dominating_set_csp(graph, weight=weight), (WEIGHT,)),
        Family("mis", "csp", lambda graph, seed: maximal_independent_set_csp(graph)),
    )
}

#: Topology builders ``(size, degree, seed) -> graph``: ``size`` is the side
#: of a grid or torus, and only ``regular`` reads ``degree`` and ``seed``.
GRAPHS: dict[str, Callable] = {
    "path": lambda size, degree, seed: path_graph(size),
    "cycle": lambda size, degree, seed: cycle_graph(size),
    "grid": lambda size, degree, seed: grid_graph(size, size),
    "torus": lambda size, degree, seed: torus_graph(size, size),
    "regular": lambda size, degree, seed: random_regular_graph(degree, size, seed=seed),
}

ENTRY_KEYS = ("family", "graph", "degree", "name")


def build_model(entry: Mapping, size: int, seed=None) -> MRF | LocalCSP:
    """Build the model of ``entry`` on a ``size`` topology (the side of a grid or torus).

    ``entry`` holds ``family``, optionally ``graph`` (default ``"cycle"``),
    ``degree`` (default 4), ``name`` (a sweep label) and any of the
    family's parameters, which otherwise take their defaults; any other
    key is refused.  Numbers are checked, never coerced: an int parameter,
    ``size`` and ``degree`` by :func:`~repro.serialize.wire_int`, a float
    parameter by :func:`~repro.serialize.wire_number`.  ``seed`` fixes a
    regular graph and list-colouring lists.
    """
    name = entry.get("family")
    if name not in FAMILIES:
        raise ModelError(f"unknown model family {name!r}; choose from {tuple(FAMILIES)}")
    graph = entry.get("graph", "cycle")
    if graph not in GRAPHS:
        raise ModelError(f"unknown graph {graph!r}; choose from {tuple(GRAPHS)}")
    params = {param.name: param for param in FAMILIES[name].params}
    values = {key: param.default for key, param in params.items()}
    try:
        for key, value in entry.items():
            if key in ENTRY_KEYS:
                continue
            if key not in params:
                raise ModelError(
                    f"family {name!r} has no parameter {key!r}; its parameters are "
                    f"{tuple(params)} (an entry may also set {', '.join(ENTRY_KEYS)})"
                )
            values[key] = (wire_int if params[key].type is int else wire_number)(value, key)
        size, degree = wire_int(size, "size"), wire_int(entry.get("degree", 4), "degree")
    except (TypeError, ValueError) as error:
        raise ModelError(f"{name}: {error}") from None
    return FAMILIES[name].build(GRAPHS[graph](size, degree, seed), seed, **values)


def _uniform_coloring(mrf: MRF) -> bool:
    return mrf.compiled().is_uniform_coloring


@dataclass(frozen=True)
class EngineRow:
    """What runs ``method`` on a model of ``kind`` for which ``when`` holds.

    ``local`` is the ``"module:function"`` path of the LOCAL-protocol runner
    (``None``: none), imported on first use so that importing :mod:`repro`
    does not load :mod:`repro.distributed`.
    """

    kind: str
    method: str
    ensemble: type
    chain: type
    local: str | None
    when: Callable[[MRF | LocalCSP], bool] | None = None

    def local_runner(self) -> Callable:
        if self.local is None:
            raise ModelError(
                f"method {self.method!r} has no LOCAL-model protocol; use engine='chain'"
            )
        module, _, function = self.local.partition(":")
        return getattr(importlib.import_module(module), function)


_MRF_LOCAL = "repro.distributed.sampling_protocols:"
_CSP_LOCAL = "repro.distributed.csp_protocols:"

#: The first matching row wins, so a predicated row precedes its general one.
DISPATCH: tuple[EngineRow, ...] = (
    EngineRow("mrf", "local-metropolis", EnsembleLocalMetropolisColoring, LocalMetropolisChain,
              _MRF_LOCAL + "run_local_metropolis_protocol", when=_uniform_coloring),
    EngineRow("mrf", "local-metropolis", EnsembleLocalMetropolis, LocalMetropolisChain,
              _MRF_LOCAL + "run_local_metropolis_protocol"),
    EngineRow("mrf", "luby-glauber", EnsembleLubyGlauber, LubyGlauberChain,
              _MRF_LOCAL + "run_luby_glauber_protocol"),
    EngineRow("mrf", "glauber", EnsembleGlauberDynamics, GlauberDynamics, None),
    EngineRow("csp", "local-metropolis", EnsembleLocalMetropolis, LocalMetropolisCSP,
              _CSP_LOCAL + "run_local_metropolis_csp_protocol"),
    EngineRow("csp", "luby-glauber", EnsembleLubyGlauber, LubyGlauberCSP,
              _CSP_LOCAL + "run_luby_glauber_csp_protocol"),
)


def model_kind(model) -> str:
    """``"csp"`` for a :class:`~repro.csp.model.LocalCSP`, else ``"mrf"``."""
    return "csp" if isinstance(model, LocalCSP) else "mrf"


def methods_for(kind: str) -> tuple[str, ...]:
    """The methods some :data:`DISPATCH` row runs on a model of ``kind``."""
    return tuple(m for m in METHODS if any(r.kind == kind and r.method == m for r in DISPATCH))


def validate_method(model, method: str) -> None:
    """Refuse a method no row runs on the model's kind (never compiles the model)."""
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}; choose from {METHODS}")
    kind = model_kind(model)
    allowed = methods_for(kind)
    if method not in allowed:
        raise ModelError(
            f"method {method!r} has no {kind.upper()} kernel; use "
            + " or ".join(repr(m) for m in allowed)
        )


def dispatch(model: MRF | LocalCSP, method: str) -> EngineRow:
    """The first :data:`DISPATCH` row that runs ``method`` on ``model``."""
    validate_method(model, method)
    kind = model_kind(model)
    for row in DISPATCH:
        if row.kind == kind and row.method == method and (row.when is None or row.when(model)):
            return row


#: Safety factor of the heuristic round budgets: the paper's theorems give
#: O(.) bounds, and this constant was validated against the exact-mixing
#: experiments (E2/E3) with margin to spare.
BUDGET_CONSTANT = 8.0


def model_degree(model: MRF | LocalCSP) -> int:
    """Maximum neighbourhood size of a model.

    For MRFs this is the graph degree; for CSPs it is the degree of the
    *conflict graph* — ``Gamma(v)`` counts every co-scoped vertex, the
    neighbourhood both CSP chains operate on.
    """
    return int(model.max_degree)


def round_budget(
    model: MRF | LocalCSP, method: str, size: int, eps: float, region: bool = False
) -> int:
    """``ceil(8 * scale * log(size / eps))`` rounds, at least one, for ``size``
    (at least 2) vertices and the method's :data:`_BUDGET_SCALES` factor."""
    if not 0.0 < eps < 1.0:
        raise ModelError(f"eps must be in (0, 1), got {eps}")
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}; choose from {METHODS}")
    size = max(int(size), 2)
    shape = _BUDGET_SCALES[method][region]
    if shape == "one":
        scale = 1.0
    elif shape == "degree":
        scale = model_degree(model) + 1.0
    else:
        scale = float(size)
    return max(1, int(math.ceil(BUDGET_CONSTANT * scale * math.log(size / eps))))
