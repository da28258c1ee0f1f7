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

from repro.chains.cftp import _inverse_cdf_spin
from repro.chains.glauber import sample_spin
from repro.errors import ProtocolError
from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.runtime import RunStats, run_protocol
from repro.local.vectorized import VectorizedContext, VectorizedProtocol
from repro.mrf.model import MRF

__all__ = [
    "SamplingInput",
    "LubyGlauberProtocol",
    "LocalMetropolisProtocol",
    "VectorizedLubyGlauber",
    "VectorizedLocalMetropolis",
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

    def as_vectorized(self) -> VectorizedProtocol:
        return VectorizedLubyGlauber()


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

    def as_vectorized(self) -> VectorizedProtocol:
        return VectorizedLocalMetropolis()


class _VectorizedSamplingBase(VectorizedProtocol):
    """Shared array assembly for the two vectorized sampling protocols.

    ``initialize`` slices the :class:`SamplingInput` list into the state
    arrays every round handler needs: the spin vector, the ``(n, q)``
    vertex-activity table, and (via ``_build_tables``) the protocol-specific
    edge-activity stacks.  Duplicate activity matrices are deduplicated by
    content so shared-matrix models (colourings, Ising) store one matrix,
    not one per edge.
    """

    def initialize(self, ctx: VectorizedContext) -> None:
        inputs = ctx.private_inputs
        if any(inp is None for inp in inputs):
            raise ProtocolError(f"{type(self).__name__} needs SamplingInput private inputs")
        q = inputs[0].q if ctx.n else 1
        ctx.state["q"] = q
        vertex_activity = np.zeros((ctx.n, q), dtype=float)
        for v, inp in enumerate(inputs):
            vertex_activity[v] = inp.vertex_activity
        ctx.state["vertex_activity"] = vertex_activity
        self._build_tables(ctx)
        # Round-handler state lives on the backend device; the numpy
        # originals above stay host-side for setup code.
        ctx.state["spins"] = ctx.xp.asarray(
            np.array([inp.initial_spin for inp in inputs], dtype=np.int64)
        )
        ctx.state["vertex_activity_d"] = ctx.xp.asarray(vertex_activity)

    def _build_tables(self, ctx: VectorizedContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def finalize(self, ctx: VectorizedContext) -> np.ndarray:
        return ctx.xp.to_numpy(ctx.state["spins"]).copy()

    @staticmethod
    def _dedup(matrix: np.ndarray, stack: list[np.ndarray], seen: dict[bytes, int]) -> int:
        """Index of ``matrix`` in ``stack``, appending it on first sight."""
        matrix = np.ascontiguousarray(matrix, dtype=float)
        key = matrix.tobytes()
        if key not in seen:
            seen[key] = len(stack)
            stack.append(matrix)
        return seen[key]


class VectorizedLubyGlauber(_VectorizedSamplingBase):
    """Algorithm 1 with whole-graph array rounds.

    Same per-round kernel as :class:`LubyGlauberProtocol` — i.i.d. ranks,
    strict local maxima form the update set, winners redraw from the
    conditional marginal (paper eq. (2)) — with the per-vertex loops
    replaced by edge-array comparisons and a padded-neighbour gather.
    """

    message_atoms = 2  # (rank, spin)

    def _build_tables(self, ctx: VectorizedContext) -> None:
        # Padded neighbour table (-1 pad) plus per-slot indices into the
        # deduplicated stack of normalised edge-activity matrices.
        n, q = ctx.n, ctx.state["q"]
        width = max(ctx.delta_bound, 1)
        pad = np.full((n, width), -1, dtype=np.int64)
        act_idx = np.zeros((n, width), dtype=np.int64)
        stack: list[np.ndarray] = []
        seen: dict[bytes, int] = {}
        for v, inp in enumerate(ctx.private_inputs):
            for k, u in enumerate(sorted(inp.edge_activities)):
                pad[v, k] = u
                act_idx[v, k] = self._dedup(inp.edge_activities[u], stack, seen)
        xp = ctx.xp
        ctx.state["neighbour_pad"] = xp.asarray(pad)
        ctx.state["activity_index"] = xp.asarray(act_idx)
        ctx.state["activities"] = xp.asarray(
            np.stack(stack) if stack else np.ones((1, q, q))
        )

    def round(self, ctx: VectorizedContext, round_index: int) -> None:
        xp = ctx.xp
        spins = ctx.state["spins"]
        # Luby step: every node draws a rank; strict local maxima update
        # (ties lose on both sides, as in the reference protocol).
        ranks = xp.random(ctx.rng, ctx.n)
        loses = xp.zeros(ctx.n, dtype=bool)
        if ctx.m:
            ru = ranks[ctx.edge_u_d]
            rv = ranks[ctx.edge_v_d]
            loses[ctx.edge_u_d[ru <= rv]] = True
            loses[ctx.edge_v_d[rv <= ru]] = True
        selected = xp.nonzero1d(~loses)
        if int(selected.shape[0]) == 0:
            return
        # Heat-bath redraw: conditional weights b_v(c) * prod_u A_uv(c, X_u),
        # assembled one padded neighbour position at a time (bounded by Delta).
        weights = xp.take_rows(ctx.state["vertex_activity_d"], selected)
        pad = ctx.state["neighbour_pad"]
        act_idx = ctx.state["activity_index"]
        activities = ctx.state["activities"]
        for k in range(int(pad.shape[1])):
            neighbour = pad[selected, k]
            valid = neighbour >= 0
            if not xp.any(valid):
                break  # pad is left-filled: later positions are empty too
            neighbour_spins = spins[neighbour[valid]]
            weights[valid] *= activities[
                act_idx[selected[valid], k], :, neighbour_spins
            ]
        totals = xp.sum(weights, axis=1)
        if xp.any(totals <= 0.0):
            bad = int(selected[xp.argmax(totals <= 0.0)])
            raise ProtocolError(
                f"node {bad}: conditional marginal undefined "
                "(Glauber well-definedness assumption violated)"
            )
        cdf = xp.cumsum(weights, axis=1)
        draws = xp.random(ctx.rng, int(selected.shape[0])) * totals
        new_spins = xp.sum(cdf <= draws[:, None], axis=1)
        new_spins = xp.clip(new_spins, 0, ctx.state["q"] - 1)
        spins[selected] = new_spins


class VectorizedLocalMetropolis(_VectorizedSamplingBase):
    """Algorithm 2 with whole-graph array rounds.

    Same per-round kernel as :class:`LocalMetropolisProtocol`: per-node
    proposals drawn proportional to ``b_v``, one shared edge coin
    ``(r_u + r_v) mod 1`` per edge, the three-factor activity check of
    Algorithm 2 line 6 evaluated for all edges at once, and a vertex
    accepts iff no incident edge failed.
    """

    message_atoms = 3  # (proposal, spin, coin share)

    def _build_tables(self, ctx: VectorizedContext) -> None:
        # Per-edge indices into the deduplicated stack of normalised
        # edge-activity matrices, aligned with ctx.edge_u / ctx.edge_v, plus
        # the per-vertex proposal CDFs.
        q = ctx.state["q"]
        stack: list[np.ndarray] = []
        seen: dict[bytes, int] = {}
        edge_idx = np.zeros(ctx.m, dtype=np.int64)
        for e in range(ctx.m):
            u, v = int(ctx.edge_u[e]), int(ctx.edge_v[e])
            edge_idx[e] = self._dedup(
                ctx.private_inputs[v].edge_activities[u], stack, seen
            )
        xp = ctx.xp
        ctx.state["edge_activity_index"] = xp.asarray(edge_idx)
        ctx.state["activities"] = xp.asarray(
            np.stack(stack) if stack else np.ones((1, q, q))
        )
        vertex_activity = ctx.state["vertex_activity"]
        totals = vertex_activity.sum(axis=1, keepdims=True)
        ctx.state["proposal_cdf"] = xp.asarray(
            np.cumsum(vertex_activity / totals, axis=1)
            if ctx.n
            else np.zeros((0, q))
        )

    def round(self, ctx: VectorizedContext, round_index: int) -> None:
        xp = ctx.xp
        spins = ctx.state["spins"]
        cdf = ctx.state["proposal_cdf"]
        q = ctx.state["q"]
        # Proposals via vectorised inverse-CDF — identical semantics to the
        # reference's searchsorted(side="right") per node.
        draws = xp.random(ctx.rng, ctx.n)
        proposals = xp.sum(cdf <= draws[:, None], axis=1)
        proposals = xp.clip(proposals, 0, q - 1)
        shares = xp.random(ctx.rng, ctx.n)
        if ctx.m == 0:
            spins[...] = proposals
            return
        activities = ctx.state["activities"]
        edge_idx = ctx.state["edge_activity_index"]
        pu = proposals[ctx.edge_u_d]
        pv = proposals[ctx.edge_v_d]
        xu = spins[ctx.edge_u_d]
        xv = spins[ctx.edge_v_d]
        # Paper Algorithm 2 line 6 — both endpoints of uv evaluate the same
        # three-factor product (the matrices are symmetric).
        probability = (
            activities[edge_idx, pu, pv]
            * activities[edge_idx, xu, pv]
            * activities[edge_idx, pu, xv]
        )
        coin = (shares[ctx.edge_u_d] + shares[ctx.edge_v_d]) % 1.0
        failed = coin >= probability
        blocked = ctx.scatter_edge_flags(failed) > 0
        ctx.state["spins"] = xp.where(blocked, spins, proposals)


def run_luby_glauber_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
    engine: str = "reference",
    collect_stats: bool = True,
    backend: str | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 1 on the LOCAL runtime; return (configuration, stats)."""
    network = Network(mrf.graph)
    if initial is None:
        from repro.chains.base import greedy_feasible_config

        initial = greedy_feasible_config(mrf)
    outputs, stats = run_protocol(
        LubyGlauberProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_private_inputs(mrf, initial),
        engine=engine,
        collect_stats=collect_stats,
        backend=backend,
    )
    return np.asarray(outputs, dtype=np.int64), stats


def run_local_metropolis_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
    engine: str = "reference",
    collect_stats: bool = True,
    backend: str | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 2 on the LOCAL runtime; return (configuration, stats)."""
    network = Network(mrf.graph)
    if initial is None:
        from repro.chains.base import greedy_feasible_config

        initial = greedy_feasible_config(mrf)
    outputs, stats = run_protocol(
        LocalMetropolisProtocol(),
        network,
        rounds,
        seed=seed,
        private_inputs=make_private_inputs(mrf, initial),
        engine=engine,
        collect_stats=collect_stats,
        backend=backend,
    )
    return np.asarray(outputs, dtype=np.int64), stats
