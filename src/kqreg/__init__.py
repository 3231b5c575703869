"""Kernel quantile regression with additive kernels.

A numpy/scipy library for regularized pinball-loss estimation in reproducing
kernel Hilbert spaces, together with the machinery to check its guarantees at
desk scale: exact integral-operator calculus on discrete measures, empirical
covering nets for additive function balls, closed-form learning-rate algebra,
and a synthetic convergence-rate harness.
"""

from .kernels import (
    Additive,
    BlockLayout,
    Gaussian,
    KernelSpec,
    Product,
    SobolevMin,
    gram,
    rkhs_norm_sq,
    spec_from_dict,
    spec_to_dict,
)
from .loss import clip, empirical_risk, pinball, shifted_pinball
from .solver import (
    ConvergenceError,
    DataSet,
    FitOptions,
    Model,
    duality_gap,
    fit,
    objective,
)
from .spectral import (
    BlockFunction,
    DiscreteMeasure,
    OperatorDecomposition,
    approx_error,
    decompose,
    filter_error_bound,
    intermediate,
    operator_matrix,
    power_apply,
)
from .capacity import (
    EmpiricalNet,
    additive_net,
    cover_ball,
)
from .rates import (
    RateParams,
    RateResult,
    alpha_es,
    alpha_es_theta,
    alpha_general,
    alpha_quantile,
    alpha_sc2,
    beta_es,
    beta_quantile,
    figure_curve,
    table1,
    table2,
    theta_from_p,
)
from .experiments import (
    BlockTarget,
    ExperimentSpec,
    SlopeFit,
    bump_membership_report,
    fit_slope,
    generate,
    rate_experiment,
    true_excess_risk,
)

__version__ = "0.1.0"
