"""dispersat: exact and approximate dispersion of k-CNF solution spaces.

Exact diameter and s-dispersion via Walsh-Hadamard convolution or
triangle finding; approximate farthest-point oracles built from the PPZ
iteration and anchored Schoening local search; dispersion drivers; and
diverse near-minimum solutions for subset problems through isometric
reductions and local feasibility search.
"""

__version__ = "0.1.0"

from .cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    InfeasibleError,
    ParseError,
    PartialSetError,
    UnsatError,
    condition,
    evaluate,
    parse_dimacs,
    rotate,
)
from .measures import (
    DispersionObjective,
    SolutionCollection,
    WeightConstraint,
    WeightKind,
    min_pairwise_distance,
    sum_pairwise_distance,
)
from .brute import (
    brute_opt,
    diameter_via_min_ones,
    enumerate_solutions,
    min_ones_brute,
)
from .fwht import exact_diameter, exact_dispersion
from .cliques import opt_min_clique, opt_sum_clique, triangle_detect
from .ppz import (
    OracleConfig,
    PpzSample,
    ppz_farthest_min,
    ppz_farthest_sum,
    ppz_modify,
    ppz_solve,
    tau_exact,
)
from .schoning import (
    BudgetPlan,
    entropy,
    growth_base,
    inverse_entropy,
    local_search,
    make_plan,
    sample_annulus,
    schoning_farthest_sum,
    schoning_farthest_weighted,
    schoning_walk,
)
from .dispersion import (
    FarthestOracle,
    disperse_weighted_min,
    exact_oracle,
    gonzalez_min,
    ppz_oracle,
    schoning_oracle,
    sum_disperse,
)
from .subsets import (
    Graph,
    SetFamily,
    diverse_min,
    hitting_set_monotone_search,
    reduce_hitting_set,
    reduce_independent_set,
    reduce_vertex_cover,
)
from .generators import planted_kcnf, random_kcnf, separated_planted_instance
