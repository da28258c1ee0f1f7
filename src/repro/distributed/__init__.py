"""Message-passing implementations of the paper's sampling algorithms.

While :mod:`repro.chains` advances global configurations directly (the view
of the analyst), this package implements Algorithms 1 and 2, and their CSP
extensions, as genuine LOCAL-model protocols on the per-node
:mod:`repro.local` runtime: every node only reads its private input, its
private randomness and its neighbours' messages.  One chain iteration costs
exactly one communication round, and each message carries O(log n + log q)
bits of payload (a spin, a proposal, and a discretised rank/coin share) —
matching the paper's observation that neither algorithm abuses the LOCAL
model's unbounded message size.  The runtime counts every message it
delivers, so these protocols are the LOCAL oracle the batched engines of
:mod:`repro.chains.ensemble` are checked against.
"""

from repro.distributed.csp_protocols import (
    LocalMetropolisCSPProtocol,
    LubyGlauberCSPProtocol,
    run_local_metropolis_csp_protocol,
    run_luby_glauber_csp_protocol,
)
from repro.distributed.sampling_protocols import (
    LocalMetropolisProtocol,
    LubyGlauberProtocol,
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)

__all__ = [
    "LocalMetropolisCSPProtocol",
    "LocalMetropolisProtocol",
    "LubyGlauberCSPProtocol",
    "LubyGlauberProtocol",
    "run_local_metropolis_csp_protocol",
    "run_local_metropolis_protocol",
    "run_luby_glauber_csp_protocol",
    "run_luby_glauber_protocol",
]
