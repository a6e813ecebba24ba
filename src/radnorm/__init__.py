"""radnorm: bounds, brackets, and Monte Carlo validation for the mean
spectral norm of sign-modulated weight matrices."""

from .core import (
    CapExceededError,
    EdgeSet,
    GraphView,
    WeightMatrix,
    derive_graph,
    girth,
    is_tangle_free,
    log_clamped,
    power_graph,
)
from .spectral import (
    max_row_col_l2,
    spectral_norm,
)
from .moments import (
    SurrogateResult,
    hitczenko_surrogate,
)
from .bounds import (
    BoundProfile,
    EngineConfig,
    RBracket,
    bound_profile,
    bvh_bound,
    ksweep_term,
    r_exact_01,
    r_heuristic,
    seginer_bound,
    trivial_degree_bound,
)
from .sampler import (
    McEstimate,
    exact_small_norm_expectation,
    mc_norm,
)
from .families import (
    FamilyInstance,
    GenerationError,
    block_plus_singletons,
    circulant,
    expander_check,
    large_girth_instance,
    one_cycle_neighborhood_instance,
    random_regular,
    union_complete,
)
from .oracles import (
    enumerate_connected,
    subgraph_norm_enum,
    x_quantity,
)
from .scenarios import SCENARIOS, ScenarioReport, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
