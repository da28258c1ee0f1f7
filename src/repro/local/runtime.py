"""The synchronous round scheduler for LOCAL-model executions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chains.base import SeedLike
from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.rng import spawn_node_rngs

__all__ = ["RunStats", "run_protocol"]


@dataclass
class RunStats:
    """Accounting for one LOCAL execution.

    Attributes
    ----------
    rounds:
        Number of synchronised communication rounds executed.
    messages:
        Total number of point-to-point messages delivered.
    messages_per_round:
        Message count per round (length ``rounds``).
    max_message_atoms:
        Largest payload size observed, counted in scalar "atoms" (numbers /
        bools / short strings).  The LOCAL model allows unbounded messages;
        the paper notes neither algorithm abuses this — each message is a
        constant number of O(log n)-bit scalars, so this stays O(1).
    """

    rounds: int = 0
    messages: int = 0
    messages_per_round: list[int] = field(default_factory=list)
    max_message_atoms: int = 0


def _payload_atoms(message: Any) -> int:
    """Count scalar atoms in a message payload (dicts/lists/tuples recurse).

    numpy is referenced through the module-level import — this runs once per
    delivered message, so an inner ``import numpy`` would put registry
    lookups on the hottest loop of the reference engine.
    """
    if isinstance(message, dict):
        return sum(_payload_atoms(key) + _payload_atoms(value) for key, value in message.items())
    if isinstance(message, (list, tuple, set)):
        return sum(_payload_atoms(item) for item in message)
    if isinstance(message, np.ndarray):
        return int(message.size)
    return 1


def run_protocol(
    protocol: Protocol,
    network: Network,
    rounds: int,
    seed: SeedLike = None,
    private_inputs: list[Any] | None = None,
) -> tuple[list[Any], RunStats]:
    """Execute ``protocol`` on ``network`` for ``rounds`` synchronous rounds.

    Every node runs its own :class:`Protocol` callbacks on its own context,
    and every message is delivered and counted, so the returned stats are
    measured, not derived.  A node usually sends one message object to
    every neighbour, so a payload is walked only when it is not the object
    the same outbox sent before it.

    Parameters
    ----------
    protocol:
        The per-node behaviour.
    network:
        The communication topology.
    rounds:
        Number of rounds ``T`` to run before asking every node to finalize.
    seed:
        Root seed (:data:`~repro.chains.base.SeedLike`); per-node streams
        are spawned independently from it via the shared coercion helper.
    private_inputs:
        Optional per-node private inputs (length ``n``); ``None`` gives every
        node ``None``.

    Returns
    -------
    (outputs, stats):
        ``outputs[v]`` is node ``v``'s output; ``stats`` is the round and
        message accounting.
    """
    n = network.n
    rngs = spawn_node_rngs(seed, n)
    if private_inputs is None:
        private_inputs = [None] * n
    if len(private_inputs) != n:
        raise ValueError(f"private_inputs must have length {n}")
    delta = network.max_degree  # an O(n) scan: once, not once per node
    contexts = [
        NodeContext(
            node=v,
            neighbors=network.neighbors(v),
            rng=rngs[v],
            private_input=private_inputs[v],
            n_bound=n,
            delta_bound=delta,
        )
        for v in range(n)
    ]
    for ctx in contexts:
        protocol.initialize(ctx)

    stats = RunStats()
    for round_index in range(1, rounds + 1):
        # Phase 1: every node composes its outbox from current local state.
        outboxes: list[dict[int, Any]] = []
        for ctx in contexts:
            outbox = protocol.compose(ctx, round_index)
            ctx.check_addressees(outbox)
            outboxes.append(outbox)
        # Phase 2: deliver all messages simultaneously.
        inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
        round_messages = 0
        for sender, outbox in enumerate(outboxes):
            round_messages += len(outbox)
            previous = None
            for target, message in outbox.items():
                inboxes[target][sender] = message
                if message is not previous:
                    previous = message
                    stats.max_message_atoms = max(
                        stats.max_message_atoms, _payload_atoms(message)
                    )
        for ctx in contexts:
            protocol.deliver(ctx, round_index, inboxes[ctx.node])
        stats.rounds += 1
        stats.messages += round_messages
        stats.messages_per_round.append(round_messages)

    outputs = [protocol.finalize(ctx) for ctx in contexts]
    return outputs, stats
