"""Exact crank-statistic tables for partitions, overpartitions and k-colored
partitions, built from their generating functions and cross-checked against
brute-force enumeration, plus machine verification of the associated
q-series identities and inequalities.

All arithmetic is exact (Python ints throughout).
"""

from cranktab.bivariate import (
    BivariateSeries,
    crank_gf,
    kcrank_gf,
    m2_crank_gf,
    overline_crank_gf,
    rank_gf,
)
from cranktab.brute import (
    colored_partitions,
    crank,
    crank_contributions,
    first_residual_contributions,
    kcrank,
    overpartitions,
    partitions,
    rank,
    second_residual_contributions,
)
from cranktab.series import (
    OrderMismatch,
    Series,
    distinct_series,
    euler_product,
    overpartition_series,
    partition_series,
    qpoch_fin,
    qpoch_inf,
)
from cranktab.tables import CrankTable, build_table, diff_column, monotone_diff_row
from cranktab.verify import (
    CheckReport,
    check_identity,
    check_table_consistency,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "CheckReport",
    "CrankTable",
    "OrderMismatch",
    "Series",
    "build_table",
    "check_identity",
    "check_table_consistency",
    "colored_partitions",
    "crank",
    "crank_contributions",
    "crank_gf",
    "diff_column",
    "distinct_series",
    "euler_product",
    "first_residual_contributions",
    "kcrank",
    "kcrank_gf",
    "m2_crank_gf",
    "monotone_diff_row",
    "overline_crank_gf",
    "overpartition_series",
    "overpartitions",
    "partition_series",
    "partitions",
    "qpoch_fin",
    "qpoch_inf",
    "rank",
    "rank_gf",
    "run_checks",
    "second_residual_contributions",
]
