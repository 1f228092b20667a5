"""setcoverlab: a weighted set-cover laboratory.

Exact-rational greedy with full tracing, instance-wise accuracy bounds,
an LP relaxation with a from-scratch simplex, exact solvers, the two
classic instance families, and the sequence-enumeration experiments.
"""

from .bounds import (
    BoundReport,
    bound_report,
    delta_of,
    g_from_counts,
    g_of,
    harmonic,
    slavik_bounds,
)
from .exact import ExactResult, SolveBudget, exact_opt
from .experiments import (
    BucketStats,
    Table1Result,
    Table2Result,
    Table3Result,
    emit_csv,
    emit_markdown,
    enumerate_sequences,
    table1,
    table2,
    table3,
)
from .generators import (
    RandomSpec,
    SequenceSpec,
    gen_class_cs,
    gen_gf2,
    gen_random,
)
from .greedy import (
    GreedyTrace,
    TIE_LOWEST_INDEX,
    TIE_MAX_RESIDUAL,
    greedy,
    replay_check,
    replay_diff,
    trace_to_csv,
)
from .instance import (
    Cover,
    Instance,
    SetEntry,
    is_cover,
    make_cover,
    make_instance,
    parse_native,
    parse_orlib,
    validate,
    write_native,
)
from .lp import (
    LpOutcome,
    check_fractional_cover,
    integrality_gap,
    r_estimate,
    solve_lp,
    write_lp_format,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
