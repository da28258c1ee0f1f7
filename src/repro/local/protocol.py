"""The protocol interface for the LOCAL-model simulator.

A :class:`Protocol` describes the behaviour of a *single node*; the runtime
instantiates one :class:`NodeContext` per vertex and drives all of them in
synchronised rounds:

1. ``initialize(ctx)`` is called once per node before round 1;
2. each round, ``compose(ctx)`` returns the messages the node sends to each
   neighbour (based only on its current local state);
3. after all messages of the round are exchanged, ``deliver(ctx, inbox)``
   updates the node's state from the received messages;
4. after the final round, ``finalize(ctx)`` produces the node's output.

Nodes may only communicate through the returned message dictionaries — the
runtime validates that every addressee is a neighbour, preserving the LOCAL
model's information-locality guarantee.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.errors import ProtocolError

__all__ = ["NodeContext", "Protocol"]


class NodeContext:
    """Everything a node can legally see during a LOCAL execution.

    Attributes
    ----------
    node:
        This node's identifier (``0..n-1``); in the LOCAL model nodes carry
        unique IDs.
    neighbors:
        Sorted tuple of neighbour identifiers.
    rng:
        This node's private randomness stream ``Psi_v``.
    private_input:
        The node's private input — for sampling problems, the activities
        ``{A_uv}_{u in Gamma(v)}`` and ``b_v`` (paper Algorithms 1 and 2).
    n_bound, delta_bound:
        The global upper bounds on ``n`` and ``Delta`` that paper Section 2.1
        explicitly allows.
    state:
        Free-form mutable per-node storage owned by the protocol.
    """

    def __init__(
        self,
        node: int,
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        private_input: Any,
        n_bound: int,
        delta_bound: int,
    ) -> None:
        self.node = node
        self.neighbors = neighbors
        self.rng = rng
        self.private_input = private_input
        self.n_bound = n_bound
        self.delta_bound = delta_bound
        self.state: dict[str, Any] = {}

    def check_addressees(self, outbox: dict[int, Any]) -> None:
        """Raise :class:`ProtocolError` if a message targets a non-neighbour."""
        for target in outbox:
            if target not in self.neighbors:
                raise ProtocolError(
                    f"node {self.node} attempted to message non-neighbour {target}"
                )


class Protocol(ABC):
    """Per-node behaviour of a synchronous LOCAL algorithm."""

    @abstractmethod
    def initialize(self, ctx: NodeContext) -> None:
        """Set up ``ctx.state`` before the first round."""

    @abstractmethod
    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        """Return the outbox ``{neighbor: message}`` for this round."""

    @abstractmethod
    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        """Consume the inbox ``{neighbor: message}`` and update local state."""

    @abstractmethod
    def finalize(self, ctx: NodeContext) -> Any:
        """Return this node's output after the final round."""
