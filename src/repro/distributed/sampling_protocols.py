"""Algorithms 1 and 2 as LOCAL-model message-passing protocols.

Private input of node ``v`` (paper Algorithms 1-2): the activity matrices
``{A_uv}_{u in Gamma(v)}`` and the vertex activity ``b_v``.  Nothing else
about the model is globally shared.

**LubyGlauberProtocol** — one iteration per round.  Each round node ``v``
draws its rank ``beta_v`` and sends ``(beta_v, X_v)`` to all neighbours; on
delivery it updates ``X_v`` by a heat-bath draw iff its rank beats every
neighbour's.  The spins carried by the messages are the pre-round values, so
all marginals are evaluated against a consistent snapshot, exactly as in
Algorithm 1.

**LocalMetropolisProtocol** — one iteration per round.  Each round node ``v``
draws its proposal ``sigma_v`` (with probability proportional to ``b_v``)
and a coin share ``r_v``; it sends ``(sigma_v, X_v, r_v)``.  On delivery,
the edge coin of ``uv`` is the shared uniform value ``(r_u + r_v) mod 1`` —
both endpoints compute the identical value, realising the paper's
requirement that "the two endpoints access the same random coin".  Node
``v`` accepts its proposal iff every incident edge check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.chains.base import start_config
from repro.chains.cftp import _inverse_cdf_spin
from repro.chains.glauber import sample_spin
from repro.errors import ProtocolError
from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.runtime import RunStats, run_protocol
from repro.mrf.model import MRF

__all__ = [
    "SamplingInput",
    "LubyGlauberProtocol",
    "LocalMetropolisProtocol",
    "run_luby_glauber_protocol",
    "run_local_metropolis_protocol",
    "make_private_inputs",
]


@dataclass
class SamplingInput:
    """Private input of one node: its local slice of the MRF.

    Attributes
    ----------
    q:
        Domain size (shared by convention, as in the paper).
    vertex_activity:
        ``b_v`` as a length-q vector.
    edge_activities:
        ``{u: Ã_uv}`` for each neighbour ``u`` — already max-normalised, as
        only ratios/normalised values are ever used by the algorithms.
    initial_spin:
        The arbitrary initial value ``X_v`` (Algorithms 1-2, line 1).
    """

    q: int
    vertex_activity: np.ndarray
    edge_activities: dict[int, np.ndarray]
    initial_spin: int


def make_private_inputs(mrf: MRF, initial: np.ndarray) -> list[SamplingInput]:
    """Slice an MRF into per-node private inputs."""
    inputs = []
    for v in range(mrf.n):
        inputs.append(
            SamplingInput(
                q=mrf.q,
                vertex_activity=mrf.vertex_activity[v].copy(),
                edge_activities={
                    u: mrf.normalized_edge_activity(u, v) for u in mrf.neighbors(v)
                },
                initial_spin=int(initial[v]),
            )
        )
    return inputs


class LubyGlauberProtocol(Protocol):
    """Algorithm 1 as a LOCAL protocol; one iteration per communication round."""

    def initialize(self, ctx: NodeContext) -> None:
        inp: SamplingInput = ctx.private_input
        if inp is None:
            raise ProtocolError("LubyGlauberProtocol needs SamplingInput private inputs")
        ctx.state["spin"] = inp.initial_spin
        ctx.state["rank"] = None

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        rank = float(ctx.rng.random())
        ctx.state["rank"] = rank
        message = (rank, ctx.state["spin"])
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: SamplingInput = ctx.private_input
        my_rank = ctx.state["rank"]
        neighbor_spins = {u: inbox[u][1] for u in ctx.neighbors}
        if ctx.neighbors and any(inbox[u][0] >= my_rank for u in ctx.neighbors):
            return  # not a local maximum: stay put this round
        # Heat-bath update from the conditional marginal (paper eq. (2)).
        weights = inp.vertex_activity.copy()
        for u in ctx.neighbors:
            weights = weights * inp.edge_activities[u][:, neighbor_spins[u]]
        total = weights.sum()
        if total <= 0.0:
            raise ProtocolError(
                f"node {ctx.node}: conditional marginal undefined "
                "(Glauber well-definedness assumption violated)"
            )
        ctx.state["spin"] = sample_spin(weights / total, ctx.rng)

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


class LocalMetropolisProtocol(Protocol):
    """Algorithm 2 as a LOCAL protocol; one iteration per communication round."""

    def initialize(self, ctx: NodeContext) -> None:
        inp: SamplingInput = ctx.private_input
        if inp is None:
            raise ProtocolError("LocalMetropolisProtocol needs SamplingInput private inputs")
        ctx.state["spin"] = inp.initial_spin
        total = inp.vertex_activity.sum()
        ctx.state["proposal_distribution"] = inp.vertex_activity / total

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        proposal = _inverse_cdf_spin(ctx.state["proposal_distribution"], float(ctx.rng.random()))
        coin_share = float(ctx.rng.random())
        ctx.state["proposal"] = proposal
        ctx.state["coin_share"] = coin_share
        message = (proposal, ctx.state["spin"], coin_share)
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: SamplingInput = ctx.private_input
        my_spin = ctx.state["spin"]
        my_proposal = ctx.state["proposal"]
        my_share = ctx.state["coin_share"]
        for u in ctx.neighbors:
            their_proposal, their_spin, their_share = inbox[u]
            table = inp.edge_activities[u]
            # Both endpoints evaluate the same product of three normalised
            # activities (paper Algorithm 2, line 6).
            probability = (
                table[their_proposal, my_proposal]
                * table[their_spin, my_proposal]
                * table[their_proposal, my_spin]
            )
            # Shared edge coin: (r_u + r_v) mod 1 is uniform and identical
            # at both endpoints.
            coin = (my_share + their_share) % 1.0
            if coin >= probability:
                return  # an incident edge failed its check: keep X_v
        ctx.state["spin"] = my_proposal

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


def run_luby_glauber_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 1 on the LOCAL runtime; return (configuration, stats)."""
    network = Network(mrf.graph)
    initial = start_config(mrf, initial)
    outputs, stats = run_protocol(
        LubyGlauberProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_private_inputs(mrf, initial),
    )
    return np.asarray(outputs, dtype=np.int64), stats


def run_local_metropolis_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 2 on the LOCAL runtime; return (configuration, stats)."""
    network = Network(mrf.graph)
    initial = start_config(mrf, initial)
    outputs, stats = run_protocol(
        LocalMetropolisProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_private_inputs(mrf, initial),
    )
    return np.asarray(outputs, dtype=np.int64), stats
