"""Exact crank-statistic tables for partitions, overpartitions and k-colored
partitions, built from their generating functions and cross-checked against
brute-force enumeration, plus machine verification of the associated
q-series identities and inequalities.

All arithmetic is exact (Python ints throughout).

Importing the package loads no submodule.  Each public name is imported from
its submodule on first access (PEP 562), so a command pays only for the
modules it runs; every process starts afresh.  The package also holds the
vocabulary the command-line parser needs before anything runs (:data:`STATISTICS`,
:data:`DEFAULT_IDENTITY_ORDER`, :class:`UsageError`) and the shared argument rules
:func:`check_k` and :func:`check_size`.
"""

__version__ = "0.1.0"

STATISTICS = ("crank", "ocrank", "m2crank", "kcrank", "rank")
DEFAULT_IDENTITY_ORDER = 200


class UsageError(ValueError):
    """A bad argument or command line: the command line exits 2 with its one line."""


def check_k(statistic: str, k: int | None) -> None:
    """Raise :class:`UsageError` unless an int k >= 2 is given for kcrank, and no k for the rest."""
    kcrank = statistic == "kcrank"
    if kcrank != (k is not None) or kcrank and not (isinstance(k, int) and k >= 2):
        raise UsageError(f"{statistic}: k={k}; kcrank needs k >= 2, and no other statistic takes k")


def check_size(name: str, value: int) -> None:
    """Raise :class:`UsageError` unless the size ``name`` (an order, n_max, top) is an int >= 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise UsageError(f"{name} must be >= 0, got {value}")


_PUBLIC = {
    "bivariate": ("crank_gf", "gf_rows", "gf_table", "overline_crank_gf", "write_rows"),
    "brute": ("colored_partitions", "crank", "crank_contributions",
              "first_residual_contributions", "kcrank", "oracle_rows", "overpartitions",
              "partitions", "rank", "second_residual_contributions"),
    "identities": ("CheckReport", "check_identity"),
    "series": ("OrderMismatch", "Series", "distinct_series", "euler_product",
               "overpartition_series", "partition_series", "qpoch_fin", "qpoch_inf"),
    "verify": ("check_table_consistency", "run_checks"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
