"""Analysis toolkit: distances, empirical estimation, convergence, theory.

* :mod:`repro.analysis.tv` — total-variation distance (paper Section 2.3);
* :mod:`repro.analysis.empirical` — empirical distributions from samples;
* :mod:`repro.analysis.convergence` — TV-versus-round curves and empirical
  mixing times for chain ensembles;
* :mod:`repro.analysis.theory` — the paper's closed-form quantities: the
  Dobrushin/Theorem 3.2 bounds, the Section 4.2.1 ideal-coupling formulas,
  the Lemma 4.4/4.5 contraction left-hand sides, and the threshold constants
  ``2 + sqrt(2)`` and ``alpha* ≈ 3.634``.
"""

from repro.analysis.convergence import (
    SequentialChainEnsemble,
    empirical_mixing_time,
    ensemble_agreement_curve,
    ensemble_scalar_trajectory,
    ensemble_tv_curve,
)
from repro.analysis.diagnostics import (
    autocorrelation,
    batch_effective_sample_size,
    effective_sample_size,
    gelman_rubin,
    integrated_autocorrelation_time,
)
from repro.analysis.empirical import (
    batch_agreement,
    batch_config_counts,
    batch_empirical_distribution,
    batch_marginals,
    batch_max_marginal_error,
    batch_tv_to_exact,
    empirical_distribution,
    marginal_from_samples,
)
from repro.analysis.spectral import (
    mixing_time_lower_bound,
    mixing_time_upper_bound,
    relaxation_time,
)
from repro.analysis.theory import (
    alpha_star,
    dobrushin_mixing_bound,
    global_coupling_contraction,
    ideal_coupling_expected_disagreement,
    local_coupling_contraction,
    luby_glauber_mixing_bound,
    two_plus_sqrt2,
)
from repro.analysis.tv import tv_distance

__all__ = [
    "SequentialChainEnsemble",
    "alpha_star",
    "autocorrelation",
    "batch_agreement",
    "batch_effective_sample_size",
    "batch_config_counts",
    "batch_empirical_distribution",
    "batch_marginals",
    "batch_max_marginal_error",
    "batch_tv_to_exact",
    "dobrushin_mixing_bound",
    "effective_sample_size",
    "empirical_distribution",
    "empirical_mixing_time",
    "ensemble_agreement_curve",
    "ensemble_scalar_trajectory",
    "ensemble_tv_curve",
    "gelman_rubin",
    "global_coupling_contraction",
    "ideal_coupling_expected_disagreement",
    "integrated_autocorrelation_time",
    "local_coupling_contraction",
    "luby_glauber_mixing_bound",
    "marginal_from_samples",
    "mixing_time_lower_bound",
    "mixing_time_upper_bound",
    "relaxation_time",
    "tv_distance",
    "two_plus_sqrt2",
]
