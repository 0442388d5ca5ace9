"""Bounded Borda preference dynamics on weighted influence networks."""

from .dynamics import (
    OrbitReport,
    PersistentConfig,
    Profile,
    Schedule,
    aggregate_scores,
    enumerate_fixed_points,
    is_fixed_point,
    run_until_cycle,
    step_async,
    step_sync,
)
from .errors import (
    BudgetExceededError,
    ScenarioBuildError,
    ScenarioFormatError,
    ScheduleError,
)
from .influence import (
    ClassStructure,
    InfluenceNetwork,
    class_structure,
    influence_network,
    normalize_random_walk,
    perturb_weights,
    reach,
    verify_minus_one_mode,
)
from .move_graph import (
    MoveGraph,
    StepPolicy,
    build_cover_graph,
    distance,
    step,
)
from .scenarios import (
    ScenarioConfig,
    build_gadget,
    build_traveling_wave,
    load_scenario,
    parse_scenario,
)
from .verifiers import (
    VerificationOutcome,
    enumerate_single_peaked,
    is_single_peaked,
    verify_even_period_lifting,
    verify_forced_even_period,
    verify_robustness,
    verify_single_peaked_invariance,
    verify_traveling_wave,
    verify_unreachable_persistence,
)
from .weak_orders import (
    WeakOrder,
    antipode,
    borda_scores,
    enumerate_weak_orders,
    format_order,
    parse_order,
    project,
    weak_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
