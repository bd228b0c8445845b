"""Command-line front end.

Subcommands:

* ``table``      -- build a crank-statistic table and export it (CSV/JSON);
* ``verify``     -- run theorem/conjecture sweeps and identity checks;
* ``identity``   -- run one identity-catalog entry;
* ``crosscheck`` -- compare a GF-built table against the enumeration oracle.

Exit status: 0 when everything passed, 1 when any check failed or the reader
of stdout went away (``| head``; no traceback), 2 on usage or configuration
errors, on an ``--output`` file or a stdout that cannot be written, and when
memory runs out.  Every exit with status 2 writes exactly one ``Error: ...``
line to stderr and, unless memory ran out mid-table, nothing to stdout.
The parser only parses, the output file is opened next, and the library
call then raises :class:`cranktab.UsageError` for a bad argument before it
builds or checks anything; its message is the ``Error:`` line.  A failed
command leaves no ``-o`` file and an existing one unchanged.
Outputs are deterministic for identical configurations, except for the
measured ``runtime_ms`` fields in reports.

Every invocation is a fresh process that compiles and imports its modules
anew, so this module imports at its top only the standard library and the
package root, whose :data:`~cranktab.STATISTICS` and
:data:`~cranktab.DEFAULT_IDENTITY_ORDER` the parser reads.  Each command
imports the modules it runs: ``--help`` none, ``table``
:mod:`cranktab.bivariate`, whose writer exports the GF's rows or (with
:mod:`cranktab.brute`, for ``--provenance oracle``) the oracle's,
``identity`` :mod:`cranktab.identities`, which holds the catalog and the
report type and loads :mod:`cranktab.bivariate` only for an entry that reads
a GF, ``verify`` :mod:`cranktab.verify`, which loads the catalog and, only
for a sweep or such an entry, :mod:`cranktab.bivariate`, and
``crosscheck``, which compares the GF's and the oracle's row streams,
:mod:`cranktab.bivariate`, :mod:`cranktab.brute` and
:mod:`cranktab.verify`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from cranktab import DEFAULT_IDENTITY_ORDER, STATISTICS, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        # argparse's own write drops an OSError (``--help >/dev/full``)
        (file or sys.stdout).write(self.format_help())

    def exit(self, status=0, message=None):
        # reached after --help only, inside main's try: flush stdout there
        sys.stdout.flush()
        super().exit(status, message)


def _size(raw: str) -> int:
    """The value of ``--n-max`` or ``--order``: an integer >= 0."""
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer >= 0")
    return value


@contextlib.contextmanager
def _output(path: str | None):
    """The stream to write to: stdout when ``path`` is None, else a new file.

    A regular file is written as a temporary sibling, opened before any
    work, that replaces it only if the command ends without an exception
    and is removed otherwise.  A device or a pipe is written in place.
    """
    if path is None:
        yield sys.stdout
        return
    if not path:  # an unset shell variable; realpath('') is the working directory
        raise UsageError("the output path is empty")
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    regular = os.path.isfile(target) or not os.path.exists(target)
    tmp = f"{target}.{os.getpid()}.tmp" if regular else target
    fh = None
    try:
        with open(tmp, "x" if regular else "w", encoding="utf-8") as fh:
            yield fh
        if regular:
            os.replace(tmp, target)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        if regular and fh is not None:  # ours to remove; gone after the rename
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _emit_reports(make_reports, output) -> int:
    """Open ``output``, then run ``make_reports()`` and write its reports there.

    Returns the exit status of the reports.
    """
    import json

    from cranktab import identities

    with _output(output) as fh:
        reports = make_reports()
        fh.write(json.dumps(identities.reports_to_json_obj(reports), indent=2) + "\n")
    return identities.exit_code(reports)


def table(stat, k, n_max, provenance, fmt, output):
    """Export the weighted count table of one statistic."""
    from cranktab import bivariate

    rows = bivariate.gf_rows
    if provenance == "oracle":
        from cranktab import brute

        rows = brute.oracle_rows
    with _output(output) as fh:
        bivariate.write_rows(fh, fmt, bivariate.table_label(stat, k), n_max, rows(stat, n_max, k))
    return 0


def verify_cmd(checks, n_max, order, output):
    """Run verification sweeps; exit 0 iff every check passes."""
    from cranktab import verify

    ids = [c for chunk in checks for c in chunk.split(",") if c]
    return _emit_reports(lambda: verify.run_checks(ids, n_max, order), output)


def identity(entry_id, order, output):
    """Check one identity-catalog entry at the given truncation order."""
    from cranktab import identities

    return _emit_reports(lambda: [identities.check_identity(entry_id, order)], output)


def crosscheck(stat, k, n_max, output):
    """Compare the GF's table against the enumeration oracle, row by row."""
    from cranktab import bivariate, brute, verify

    def reports():  # the oracle's ceiling is checked before the GF's base is built
        oracle, gf = brute.oracle_rows(stat, n_max, k), bivariate.gf_rows(stat, n_max, k)
        return [verify.check_table_consistency(bivariate.table_label(stat, k), gf, oracle)]

    return _emit_reports(reports, output)


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Exact crank-statistic tables and q-series verification.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(fn, name):
        doc = fn.__doc__.splitlines()[0]
        p = sub.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        p.set_defaults(command=fn)
        return p

    p = command(table, "table")
    p.add_argument("--stat", required=True, choices=STATISTICS,
                   help="Statistic to tabulate.")
    p.add_argument("--k", type=int, help="Number of colors (kcrank only).")
    p.add_argument("--n-max", type=_size, default=50, help="Largest n (default: %(default)s).")
    p.add_argument("--provenance", choices=("gf", "oracle"), default="gf",
                   help="Table backend (default: %(default)s).")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                   help="Output format (default: %(default)s).")

    p = command(verify_cmd, "verify")
    p.add_argument("--check", dest="checks", action="append", required=True,
                   help="Check id, or 'all'; may be repeated or comma-separated.")
    p.add_argument("--n-max", type=_size, help="Scan ceiling for sweeps.")
    p.add_argument("--order", type=_size, help="Truncation order for identities.")

    p = command(identity, "identity")
    p.add_argument("--id", dest="entry_id", required=True, help="Identity catalog entry id.")
    p.add_argument("--order", type=_size, default=DEFAULT_IDENTITY_ORDER,
                   help="Truncation order (default: %(default)s).")

    p = command(crosscheck, "crosscheck")
    p.add_argument("--stat", required=True, choices=STATISTICS)
    p.add_argument("--k", type=int)
    p.add_argument("--n-max", type=_size, default=25, help="Largest n (default: %(default)s).")

    for p in sub.choices.values():
        p.add_argument("-o", "--output", help="Output file (default: stdout).")
    return parser


def main(args=None, prog_name=None):
    """Run the command line ``args`` (default: ``sys.argv[1:]``).

    Always ends by raising ``SystemExit`` with the exit status.
    """
    try:
        options = vars(_parser(prog_name or "cranktab").parse_args(args))
        code = options.pop("command")(**options)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except (MemoryError, OverflowError):  # a size too large for memory, or for an int
        print("Error: out of memory", file=sys.stderr)
        code = 2
    except OSError as exc:
        # writing stdout failed (an ``-o`` file fails in _output instead):
        # point stdout at devnull so the final flush is silent, and exit 1
        # without a traceback when its reader went away (``| head``), or 2
        # with one line on any other fault (``>/dev/full``)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
        if not isinstance(exc, BrokenPipeError):
            print(f"Error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main()
