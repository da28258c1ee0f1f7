"""Markov chains for sampling from Gibbs distributions.

Sequential baselines:

* :class:`repro.chains.glauber.GlauberDynamics` — single-site heat-bath
  (paper Section 3 preamble);
* :class:`repro.chains.metropolis.MetropolisChain` — single-site Metropolis.

The paper's two distributed chains:

* :class:`repro.chains.luby_glauber.LubyGlauberChain` — Algorithm 1, with a
  pluggable independent-set scheduler (Luby step by default);
* :class:`repro.chains.local_metropolis.LocalMetropolisChain` — Algorithm 2.

Batched replica ensembles (:mod:`repro.chains.ensemble`), advancing R
independent replicas per step:

* :class:`repro.chains.ensemble.EnsembleGlauberDynamics`,
  :class:`repro.chains.ensemble.EnsembleLubyGlauberMRF` and
  :class:`repro.chains.ensemble.EnsembleLocalMetropolisMRF` — the three
  update rules for every pairwise MRF, colourings included;
* :class:`repro.chains.ensemble.EnsembleLocalMetropolisColoring` — the
  specialised LocalMetropolis kernel for uniform proper colourings;
* :class:`repro.chains.ensemble.EnsembleLubyGlauberCSP` and
  :class:`repro.chains.ensemble.EnsembleLocalMetropolisCSP` — the CSP
  extensions of both distributed chains batched over replicas.

Verification machinery:

* :mod:`repro.chains.transition` — exact transition matrices, stationary
  distributions, reversibility and spectral gaps (experiment E1);
* :mod:`repro.chains.coupling` — coupled runs, coalescence times and
  path-coupling contraction estimates (experiments E2-E5).
"""

from repro.chains.base import Chain, random_config
from repro.chains.csp_chains import LocalMetropolisCSP, LubyGlauberCSP
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberCSP,
)
from repro.chains.glauber import GlauberDynamics
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.chains.luby_glauber import LubyGlauberChain
from repro.chains.metropolis import MetropolisChain
from repro.chains.schedulers import (
    ChromaticScheduler,
    IndependentSetScheduler,
    LubyScheduler,
    SingleSiteScheduler,
)

__all__ = [
    "Chain",
    "ChromaticScheduler",
    "EnsembleGlauberDynamics",
    "EnsembleLocalMetropolisColoring",
    "EnsembleLocalMetropolisCSP",
    "EnsembleLubyGlauberCSP",
    "GlauberDynamics",
    "IndependentSetScheduler",
    "LocalMetropolisChain",
    "LocalMetropolisCSP",
    "LubyGlauberCSP",
    "LubyGlauberChain",
    "LubyScheduler",
    "MetropolisChain",
    "SingleSiteScheduler",
    "random_config",
]
