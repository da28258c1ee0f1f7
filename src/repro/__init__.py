"""repro — distributed sampling in the LOCAL model.

A production-quality reproduction of *"What can be sampled locally?"*
(Weiming Feng, Yuxin Sun, Yitong Yin — PODC 2017, arXiv:1702.00142):

* the **LubyGlauber** chain (Algorithm 1) — Glauber dynamics parallelised
  over random independent sets, mixing in ``O(Delta log(n/eps))`` rounds
  under Dobrushin's condition;
* the **LocalMetropolis** chain (Algorithm 2) — a fully parallel
  propose-and-locally-filter dynamics mixing in ``O(log(n/eps))`` rounds for
  colourings with ``q > (2 + sqrt 2) Delta``;
* the **lower-bound constructions** — exponential correlation on paths
  (Theorem 5.1) and the gadget-lift reduction from max-cut showing
  ``Omega(diam)`` hardness for hardcore sampling in non-uniqueness
  (Theorems 1.3 / 5.2);
* all substrates: a LOCAL-model simulator, MRF/Gibbs machinery, weighted
  local CSPs, exact transition-matrix verification and coupling analysis.

Quick start::

    import repro
    from repro.graphs import torus_graph
    from repro.mrf import proper_coloring_mrf

    mrf = proper_coloring_mrf(torus_graph(16, 16), q=16)
    coloring = repro.sample(mrf, method="local-metropolis", eps=0.01, seed=7)
"""

from repro import obs
from repro.api import (
    ENGINES,
    METHODS,
    MUTATIONS,
    JobSpec,
    default_round_budget,
    make_ensemble,
    mixing_time,
    model_degree,
    mutate,
    resample_region,
    run_spec,
    sample,
    sample_many,
    tv_curve,
)
from repro.csp import LocalCSP
from repro.dynamic import DynamicEnsemble
from repro.errors import (
    ConvergenceError,
    ExecError,
    FallbackEngineWarning,
    InfeasibleStateError,
    ModelError,
    ProtocolError,
    ReproError,
    StateSpaceTooLargeError,
)
from repro.mrf import (
    MRF,
    exact_gibbs_distribution,
    hardcore_mrf,
    independent_set_mrf,
    ising_mrf,
    list_coloring_mrf,
    potts_mrf,
    proper_coloring_mrf,
    uniform_mrf,
    vertex_cover_mrf,
)

__version__ = "1.0.0"

__all__ = [
    "ENGINES",
    "METHODS",
    "MRF",
    "MUTATIONS",
    "DynamicEnsemble",
    "LocalCSP",
    "ConvergenceError",
    "ExecError",
    "FallbackEngineWarning",
    "InfeasibleStateError",
    "JobSpec",
    "ModelError",
    "ProtocolError",
    "ReproError",
    "StateSpaceTooLargeError",
    "__version__",
    "default_round_budget",
    "exact_gibbs_distribution",
    "hardcore_mrf",
    "independent_set_mrf",
    "ising_mrf",
    "list_coloring_mrf",
    "make_ensemble",
    "mixing_time",
    "model_degree",
    "mutate",
    "obs",
    "potts_mrf",
    "proper_coloring_mrf",
    "resample_region",
    "run_spec",
    "sample",
    "sample_many",
    "tv_curve",
    "uniform_mrf",
    "vertex_cover_mrf",
]
