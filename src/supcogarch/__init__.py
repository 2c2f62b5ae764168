"""Simulation and analytics kit for COGARCH and superposed COGARCH
volatility models and their integrated price processes: exact event-driven
simulation, closed-form second-order structure, heavy-tail exponents, and
Monte Carlo verification of every formula at desk scale."""

from .levy import (
    CompoundPoisson,
    JumpDistribution,
    JumpPath,
    STANDARD_NORMAL,
    VarianceGamma,
    l_moments,
    s_moments,
    simulate_levy_path,
    squared_jumps,
    substream,
)
from .charexp import (
    DivergentIntegralError,
    ExponentContext,
    NoRootError,
    h_cross,
    kappa_of_phi,
    log_moment,
    phi_max,
    phi_max_kappa,
    psi,
)
from .cogarch import (
    CogarchParams,
    MomentDivergesError,
    NonStationaryError,
    PathRecord,
    cross_acov,
    cross_cov,
    cross_moment,
    simulate_cogarch,
    stationary_acov,
    stationary_mean,
    stationary_second_moment,
    stationary_variance,
)
from .superpos import (
    Mixture,
    SupPathBundle,
    Variant,
    simulate_bundle,
    sup1_acov,
    sup1_mean,
    sup1_var,
    sup2_acov,
    sup2_second_moment,
    sup2_var,
    sup3_acov,
    sup3_second_moment,
    tail_exponent,
)
from .price import (
    PricePath,
    increment_autocov,
    increment_mean_and_variance,
    simulate_price,
    sq_increment_cov_closed,
    sq_increment_cov_sup3,
)
from .analysis import (
    MomentReport,
    check_q_bounds,
    extract_q,
    hill_estimator,
    histogram,
    jump_tally,
)

__version__ = "0.1.0"
