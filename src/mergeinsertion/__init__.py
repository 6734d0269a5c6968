"""MergeInsertion (Ford-Johnson) sorting with pluggable binary-insertion
strategies, plus exact average-case analysis tools."""

from .bounds import (
    binomial_approx_p,
    c_of_x,
    frac_log2_3n,
    lower_bound_log_factorial,
    numeric_upper_bound_F,
    t_ins,
    t_ins_avg,
    worst_case_W,
)
from .exact_analysis import InsertionState, PathCount, cost, cost_insert, exact_F, exact_G
from .harness import (
    ExperimentConfig,
    Table,
    TrialStats,
    compare_algorithms,
    emit_tsv,
    run_experiment,
    sweep_factor,
)
from .probability import DistTable, batch_width, mean_Y, p_X, p_Y, p_Y_recurrence
from .sequence import PosSequence
from .sorter import (
    Schedule,
    SortOutcome,
    batch_bound,
    combined_prefix_size,
    combined_sort,
    merge_insertion,
    one_two_insertion,
)
from .strategies import Strategy, Tally, binary_insert, decision_depths, gap_depth, pivot_index

__version__ = "0.1.0"

__all__ = [
    "PosSequence",
    "Strategy",
    "Tally",
    "binary_insert",
    "decision_depths",
    "gap_depth",
    "pivot_index",
    "Schedule",
    "SortOutcome",
    "batch_bound",
    "merge_insertion",
    "one_two_insertion",
    "combined_sort",
    "combined_prefix_size",
    "DistTable",
    "batch_width",
    "p_X",
    "p_Y",
    "p_Y_recurrence",
    "mean_Y",
    "InsertionState",
    "PathCount",
    "cost_insert",
    "cost",
    "exact_G",
    "exact_F",
    "t_ins_avg",
    "t_ins",
    "numeric_upper_bound_F",
    "worst_case_W",
    "c_of_x",
    "frac_log2_3n",
    "binomial_approx_p",
    "lower_bound_log_factorial",
    "ExperimentConfig",
    "TrialStats",
    "Table",
    "run_experiment",
    "sweep_factor",
    "compare_algorithms",
    "emit_tsv",
    "__version__",
]
