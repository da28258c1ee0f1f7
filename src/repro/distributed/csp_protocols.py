"""Message-passing implementations of the CSP chain extensions.

The paper's remarks extend both algorithms to weighted local CSPs, where a
constraint ``c = (f_c, S_c)`` is *local*: its scope has constant diameter in
the network.  Co-scoped vertices can therefore exchange information in O(1)
rounds; we model that by running the protocols on the CSP's *conflict
graph* (``u ~ v`` iff they share a constraint), which telescopes those O(1)
relay hops into single edges.  Every node's private input is exactly the
set of constraints it participates in.

Per iteration (one conflict-graph round):

* **LubyGlauberCSP protocol** — each node broadcasts ``(beta_v, X_v)``; a
  node that is the strict rank maximum of its inclusive conflict
  neighbourhood (hence strongly independent from other winners) resamples
  from its conditional marginal, computable from the received spins.
* **LocalMetropolisCSP protocol** — each node broadcasts
  ``(sigma_v, X_v, r_v)``.  Every member of a constraint's scope receives
  the proposals/spins of all co-scoped vertices and evaluates the
  ``2^k - 1``-factor filter itself; the shared constraint coin is the
  fractional part of the scope's summed coin shares, identical at every
  member.  A node accepts iff all incident constraints pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.chains.base import start_config
from repro.chains.csp_chains import constraint_pass_probability
from repro.chains.glauber import sample_spin
from repro.csp.hypergraph import conflict_graph
from repro.csp.model import LocalCSP
from repro.errors import ProtocolError
from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.runtime import RunStats, run_protocol

__all__ = [
    "CSPInput",
    "LubyGlauberCSPProtocol",
    "LocalMetropolisCSPProtocol",
    "run_luby_glauber_csp_protocol",
    "run_local_metropolis_csp_protocol",
]


@dataclass
class CSPInput:
    """Private input of one node: its slice of the CSP.

    Attributes
    ----------
    q:
        Spin-domain size.
    constraints:
        ``(cid, scope, table)`` triples for every constraint containing
        this node; tables are max-normalised (only ratios matter to both
        algorithms).  The constraint id ``cid`` lets scope members address
        per-constraint coin shares — every constraint's shared coin must be
        built from *fresh* randomness, because scopes can be linearly
        dependent (e.g. a binary constraint plus two unary ones) and
        vertex-level shares would then correlate the coins, breaking the
        independence the reversibility proof relies on.
    initial_spin:
        The arbitrary starting value.
    """

    q: int
    constraints: list[tuple[int, tuple[int, ...], np.ndarray]]
    initial_spin: int


def make_csp_private_inputs(csp: LocalCSP, initial: np.ndarray) -> list[CSPInput]:
    """Slice a CSP into per-node private inputs (normalised tables)."""
    normalized = [c.normalized_table() for c in csp.constraints]
    inputs = []
    for v in range(csp.n):
        local = [
            (i, csp.constraints[i].scope, normalized[i]) for i in csp.incident[v]
        ]
        inputs.append(CSPInput(q=csp.q, constraints=local, initial_spin=int(initial[v])))
    return inputs


class LubyGlauberCSPProtocol(Protocol):
    """The LubyGlauber CSP extension as a conflict-graph protocol."""

    def initialize(self, ctx: NodeContext) -> None:
        if ctx.private_input is None:
            raise ProtocolError("LubyGlauberCSPProtocol needs CSPInput private inputs")
        ctx.state["spin"] = ctx.private_input.initial_spin

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        rank = float(ctx.rng.random())
        ctx.state["rank"] = rank
        message = (rank, ctx.state["spin"])
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: CSPInput = ctx.private_input
        if ctx.neighbors and any(
            inbox[u][0] >= ctx.state["rank"] for u in ctx.neighbors
        ):
            return
        spins = {u: inbox[u][1] for u in ctx.neighbors}
        spins[ctx.node] = ctx.state["spin"]
        weights = np.ones(inp.q)
        for _cid, scope, table in inp.constraints:
            position = scope.index(ctx.node)
            local = [spins[u] for u in scope]
            for spin in range(inp.q):
                local[position] = spin
                weights[spin] *= float(table[tuple(local)])
        total = weights.sum()
        if total <= 0.0:
            raise ProtocolError(
                f"node {ctx.node}: CSP conditional marginal undefined"
            )
        ctx.state["spin"] = sample_spin(weights / total, ctx.rng)

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


class LocalMetropolisCSPProtocol(Protocol):
    """The LocalMetropolis CSP extension as a conflict-graph protocol."""

    def initialize(self, ctx: NodeContext) -> None:
        if ctx.private_input is None:
            raise ProtocolError(
                "LocalMetropolisCSPProtocol needs CSPInput private inputs"
            )
        ctx.state["spin"] = ctx.private_input.initial_spin

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        inp: CSPInput = ctx.private_input
        proposal = int(ctx.rng.integers(inp.q))
        # One fresh coin share per incident constraint (see CSPInput docs).
        shares = {cid: float(ctx.rng.random()) for cid, _, _ in inp.constraints}
        ctx.state["proposal"] = proposal
        ctx.state["shares"] = shares
        message = (proposal, ctx.state["spin"], shares)
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: CSPInput = ctx.private_input
        proposals = {u: inbox[u][0] for u in ctx.neighbors}
        spins = {u: inbox[u][1] for u in ctx.neighbors}
        shares = {u: inbox[u][2] for u in ctx.neighbors}
        proposals[ctx.node] = ctx.state["proposal"]
        spins[ctx.node] = ctx.state["spin"]
        shares[ctx.node] = ctx.state["shares"]
        for cid, scope, table in inp.constraints:
            scope_proposals = [proposals[u] for u in scope]
            scope_spins = [spins[u] for u in scope]
            probability = constraint_pass_probability(
                table,
                tuple(range(len(scope))),
                scope_proposals,
                scope_spins,
            )
            # Shared constraint coin: the fractional part of the scope's
            # summed per-constraint shares — identical at every member,
            # uniform, and independent across constraints (fresh shares).
            coin = float(sum(shares[u][cid] for u in scope)) % 1.0
            if coin >= probability:
                return  # a failed incident constraint: keep the old spin
        ctx.state["spin"] = ctx.state["proposal"]

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


def run_luby_glauber_csp_protocol(
    csp: LocalCSP,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run the LubyGlauber CSP protocol; return (configuration, stats)."""
    network = Network(conflict_graph(csp))
    start = start_config(csp, initial)
    outputs, stats = run_protocol(
        LubyGlauberCSPProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_csp_private_inputs(csp, start),
    )
    return np.asarray(outputs, dtype=np.int64), stats


def run_local_metropolis_csp_protocol(
    csp: LocalCSP,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run the LocalMetropolis CSP protocol; return (configuration, stats)."""
    network = Network(conflict_graph(csp))
    start = start_config(csp, initial)
    outputs, stats = run_protocol(
        LocalMetropolisCSPProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_csp_private_inputs(csp, start),
    )
    return np.asarray(outputs, dtype=np.int64), stats
