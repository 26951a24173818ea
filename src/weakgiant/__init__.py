"""Giant weak components of directed random graphs.

Moment criteria and generating-function size laws for a given bivariate
degree distribution, a closed-form analysis of bounded-degree random graph
growth (including classical Flory-Stockmayer gelation as a special case),
and Monte Carlo samplers that cross-validate the analytics.
"""

from .criteria import (
    ConnectivityReport,
    criteria_report,
    mean_weak_component_size,
)
from .degdist import (
    BALANCE_TOL,
    NORM_TOL,
    BivariateDegreeDist,
    MomentSet,
    UnivariateDegreeDist,
    require_edge_balanced,
    truncated_double_poisson,
)
from .errors import (
    ConversionOutOfRange,
    DegenerateMixture,
    DuplicateKey,
    EdgeImbalance,
    Exhausted,
    NegativeIndex,
    NegativeProbability,
    NegativeTime,
    NoConvergence,
    NoReactivePair,
    NotNormalized,
    ParseError,
    Supercritical,
    Unrealizable,
    ValidationError,
    WeakGiantError,
)
from .evolution import (
    BarycentricPoint,
    BoundDist,
    FullDegreeState,
    NuMoments,
    TransitionClass,
    asymptotic_dist,
    barycentric_grid,
    conversion_sup,
    critical_conversion,
    degree_state_at,
    degree_state_at_conversion,
    marginal_degree_dist,
    mu_moments_at,
    mu_of_t,
    nu_moments,
    time_of_conversion,
    transition_class,
)
from .flory import (
    FloryMixture,
    FloryParameters,
    alpha_of,
    flory_parameters,
    gel_conversion,
    gel_point_pa,
    is_gelled,
    to_bound_dist,
)
from .gfsolver import (
    FixedPointSolution,
    giant_weak_fraction,
    interior_fixed_point,
    weak_size_distribution,
)
from .mcgraph import (
    DirectedMultigraph,
    KmcResult,
    KmcState,
    kmc_simulate,
    largest_weak_fraction,
    replica_rng,
    sample_configuration,
    size_histogram,
    weak_component_sizes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
