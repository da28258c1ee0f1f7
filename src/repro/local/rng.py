"""Independent per-node randomness.

The paper's lower-bound section models each vertex ``v`` as holding an
independent random variable ``Psi_v``; the output of a ``t``-round protocol
at ``v`` is ``Pi_{v,I}(Psi_u : u in B_t(v))``.  To honour this we give every
node its own ``numpy.random.Generator`` derived from a single root seed via
``SeedSequence.spawn`` — streams are statistically independent and the whole
run is reproducible from one integer.
"""

from __future__ import annotations

import numpy as np

from repro.chains.base import SeedLike, as_seed_sequence

__all__ = ["spawn_node_rngs"]


def spawn_node_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Return ``n`` independent generators — one ``Psi_v`` per node.

    ``seed`` is coerced by :func:`repro.chains.base.as_seed_sequence`; a
    Generator seed draws one int to form the root.
    """
    root = as_seed_sequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]
