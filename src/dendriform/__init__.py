"""Free L-algebra words, dendriform normal forms, and exact dimension checks."""

from .terms import (
    PREC,
    SUCC,
    LWord,
    Op,
    ParseError,
    compare,
    count_normal_lwords,
    format_lword,
    generator,
    hole,
    is_normal,
    l_prec,
    l_succ,
    node,
    normalize,
    parse_lword,
    substitute,
)
from .poly import AlphabetMismatchError, Polynomial, apply_context, leading, mul
from .rewrite import (
    Redex,
    RewriteOrderError,
    RuleId,
    StaleRedexError,
    find_redexes,
    normal_form,
    rewrite_step,
    rule_polynomial,
)
from .oracle import (
    RelationMatrix,
    build_relation_matrix,
    enumerate_contexts,
    enumerate_dd_words,
    enumerate_normal_lwords,
    quotient_dim,
)
from .gsbcheck import (
    CompositionReport,
    check_local_confluence,
    check_named_cases,
    check_right_mult,
    coverage_audit,
    right_mult_sweep,
)
from .series import (
    DimensionTable,
    GKStatistic,
    SeriesCoefficients,
    abc_series,
    dim_closed,
    dimension_table,
    f_recursive,
    gk_statistic,
    series_from_gf,
)

__version__ = "0.1.0"
