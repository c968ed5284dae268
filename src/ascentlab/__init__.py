"""ascentlab: hard fitness landscapes for steepest-ascent local search.

Generators for the multimodal pairs landscape, the recursive winding
landscapes, and the bounded-treewidth counting VCSP (symbol-level and its
arity-8 Boolean encoding); a deterministic steepest-ascent engine with trace
recording; gradient/flow degree bounds and width analysis; and exhaustive
verification oracles for the counting construction's transition rules.
"""

from .analysis import (
    AnalysisError,
    CensusResult,
    DegreeBoundReport,
    UnsupportedLandscapeError,
    degree_bound_report,
    differing_odd_entries_below,
    flow_change_norm,
    gradient,
    gradient_by_full_evaluations,
    local_optima_census,
    pathwidth_upper_bound,
    treewidth_exact,
    verify_gradient_formulas,
    verify_pathwidth,
    winding_peak_pairs,
)
from .counting import (
    SymbolCountingLandscape,
    count_end_state,
    f_cost,
    h_cost,
    make_counting_boolean_instance,
    make_counting_symbol_instance,
    zero_state,
)
from .landscapes import Landscape, VcspLandscape, make_pairs_instance
from .report import Report
from .rules import (
    AdmissibleClass,
    AmbiguousPriorityError,
    RuleApplication,
    RULES,
    applicable_rules,
    classify,
    counting_path,
    is_admissible,
    rule_successor,
    verify_cpp_closure,
    verify_rule_arithmetic,
    verify_steepest_equals_rules,
)
from .search import (
    AscentTrace,
    FAIL_ON_TIE,
    LOCAL_OPTIMUM,
    LOWEST_INDEX,
    STEP_BUDGET,
    TieError,
    TraceStep,
    first_improvement_ascent,
    is_local_maximum,
    steepest_ascent,
    trace_table,
)
from .symbols import (
    ADJACENT_SYMBOLS,
    CODES,
    INTERMEDIATE_SYMBOLS,
    MAIN_SYMBOLS,
    SYMBOLS,
    decode_bits,
    decode_block,
    encode_state,
    format_symbol_state,
    parse_symbol_state,
)
from .vcsp import (
    ConstraintGraph,
    SoftConstraint,
    VcspError,
    VcspInstance,
    dump_instance,
    instance_from_obj,
    instance_to_obj,
    load_instance,
)
from .winding import (
    SCHEDULE_PRESETS,
    StepSchedule,
    WindingError,
    WindingLandscape,
    dump_winding,
    load_winding,
    winding_from_obj,
    winding_to_obj,
)

__version__ = "0.1.0"
