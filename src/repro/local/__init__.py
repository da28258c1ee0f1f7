"""A faithful simulator of Linial's LOCAL model (paper Section 2.1).

The LOCAL model: a network of ``n`` processors is an undirected graph; in
each synchronised round every processor may (1) receive a message of
arbitrary size from each neighbour, (2) perform arbitrary local computation,
and (3) send a message of arbitrary size to each neighbour.  After ``t``
rounds the output of a vertex is a function of the private inputs *and
private randomness* within its ``t``-ball — the "locality of randomness" the
paper's lower bounds exploit (property (27)).

This package provides:

* :mod:`repro.local.network` — the communication topology;
* :mod:`repro.local.rng` — independent per-node randomness streams;
* :mod:`repro.local.protocol` — the :class:`Protocol` interface and node contexts;
* :mod:`repro.local.runtime` — the synchronous scheduler with round/message
  accounting.

This per-node runtime is the executable definition of the model and the
oracle the batched engines are tested against.  For round complexity at
scale use :func:`repro.sample_many` or :func:`repro.make_ensemble`: each
step of those engines is one LOCAL round.
"""

from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.rng import spawn_node_rngs
from repro.local.runtime import RunStats, run_protocol

__all__ = [
    "Network",
    "NodeContext",
    "Protocol",
    "RunStats",
    "run_protocol",
    "spawn_node_rngs",
]
