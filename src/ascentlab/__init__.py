"""ascentlab: hard fitness landscapes for steepest-ascent local search.

Generators for the multimodal pairs landscape, the recursive winding
landscapes, and the bounded-treewidth counting VCSP (symbol-level and its
arity-8 Boolean encoding); a deterministic steepest-ascent engine with trace
recording; gradient/flow degree bounds and width analysis; and exhaustive
verification oracles for the counting construction's transition rules.

The package re-exports the names the benchmark reads and the entry points
the README's library map names; any other name is imported from its module.
"""

from .analysis import gradient, local_optima_census, pathwidth_upper_bound, treewidth_exact
from .counting import (
    SymbolCountingLandscape,
    count_end_state,
    make_counting_boolean_instance,
    zero_state,
)
from .landscapes import VcspLandscape, make_pairs_instance
from .rules import (
    AdmissibleClass,
    applicable_rules,
    classify,
    verify_cpp_closure,
    verify_steepest_equals_rules,
)
from .search import (
    AscentTrace,
    FAIL_ON_TIE,
    LOCAL_OPTIMUM,
    TraceStep,
    first_improvement_ascent,
    is_local_maximum,
    steepest_ascent,
)
from .symbols import decode_bits, encode_state
from .vcsp import ConstraintGraph, VcspInstance
from .winding import SCHEDULE_PRESETS, WindingLandscape

__version__ = "0.1.0"
