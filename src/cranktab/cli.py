"""Command-line front end.

Subcommands:

* ``table``      -- build a crank-statistic table and export it (CSV/JSON);
* ``verify``     -- run theorem/conjecture sweeps and identity checks;
* ``identity``   -- run one identity-catalog entry;
* ``crosscheck`` -- compare a GF-built table against the enumeration oracle.

Exit status: 0 when everything passed, 1 when any check failed, 2 on usage
or configuration errors and on an ``--output`` file that cannot be written.
Usage is checked first, then the output file is opened, and only then is
anything built or checked, so a bad ``-o`` path fails at once.
Outputs are deterministic for identical configurations, except for the
measured ``runtime_ms`` fields in reports.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from cranktab import brute, identities, tables, verify

# --n-max and --order: a negative size is a usage error (exit 2)
SIZE = click.IntRange(min=0)


class _CannotWrite(click.ClickException):
    exit_code = 2  # one "Error: ..." line, no usage text


@contextlib.contextmanager
def _output(path: str | None):
    """The stream to write to: the file at ``path``, or stdout when it is None."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}")


def _emit_reports(make_reports, output) -> None:
    """Open ``output``, then run ``make_reports()`` and write its reports there."""
    with _output(output) as fh:
        reports = make_reports()
        fh.write(json.dumps(verify.reports_to_json_obj(reports), indent=2) + "\n")
    code = verify.exit_code(reports)
    if code:
        raise SystemExit(code)


def _parse_k_list(raw: str | None):
    if raw is None:
        return None
    try:
        ks = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise click.UsageError(f"bad k list {raw!r}; expected comma-separated integers")
    if any(k < 2 for k in ks):
        raise click.UsageError("every k must be >= 2")
    return tuple(dict.fromkeys(ks))  # a repeated k runs once, in first-seen order


def _check_k(stat: str, k: int | None) -> None:
    if stat == "kcrank" and k is None:
        raise click.UsageError("--stat kcrank requires --k")
    if stat == "kcrank" and k < 2:
        raise click.UsageError("--k must be >= 2")
    if stat != "kcrank" and k is not None:
        raise click.UsageError(f"--k applies only to --stat kcrank, not {stat}")


def _check_oracle_ceiling(stat: str, n_max: int) -> None:
    ceiling = brute.ORACLE_CEILINGS.get(stat)
    if ceiling is not None and n_max > ceiling:
        raise click.UsageError(
            f"--n-max {n_max} exceeds the enumeration ceiling {ceiling} for {stat}"
        )


def _check_flags_used(ids, flags) -> None:
    """Reject a ``verify`` flag that none of the checks ``ids`` reads."""
    readers = {
        "--n-max": sorted(verify.SWEEPS),
        "--order": sorted(identities.CATALOG),
        "--k": sorted(cid for cid, sweeps in verify.SWEEPS.items()
                      if any(s.statistic == "kcrank" for s in sweeps)),
    }
    for flag, value in flags.items():
        if value is not None and set(ids).isdisjoint(readers[flag]):
            raise click.UsageError(f"{flag} applies only to {', '.join(readers[flag])}")


@click.group()
def main():
    """Exact crank-statistic tables and q-series verification."""


@main.command()
@click.option("--stat", required=True,
              type=click.Choice(tables.STATISTICS), help="Statistic to tabulate.")
@click.option("--k", type=int, default=None, help="Number of colors (kcrank only).")
@click.option("--n-max", type=SIZE, default=50, show_default=True)
@click.option("--provenance", type=click.Choice(["gf", "oracle"]), default="gf",
              help="Table backend (default: gf).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Output file (default: stdout).")
def table(stat, k, n_max, provenance, fmt, output):
    """Export the weighted count table of one statistic."""
    _check_k(stat, k)
    if provenance == "oracle":
        _check_oracle_ceiling(stat, n_max)
    with _output(output) as fh:
        tables.build_table(stat, n_max, provenance, k=k).write(fh, fmt)


@main.command("verify")
@click.option("--check", "checks", multiple=True, required=True,
              help="Check id, or 'all'; may be repeated or comma-separated.")
@click.option("--n-max", type=SIZE, default=None, help="Scan ceiling for sweeps.")
@click.option("--order", type=SIZE, default=None, help="Truncation order for identities.")
@click.option("--k", "k_raw", type=str, default=None,
              help="Comma-separated k values for the k-crank checks.")
@click.option("--output", "-o", type=click.Path(), default=None)
def verify_cmd(checks, n_max, order, k_raw, output):
    """Run verification sweeps; exit 0 iff every check passes."""
    ids = [c for chunk in checks for c in chunk.split(",") if c]
    available = f"available: {', '.join(verify.available_checks())}"
    if not ids:
        raise click.UsageError(f"no check id given; {available}")
    try:
        ids = verify.expand_checks(ids)
    except KeyError as exc:
        raise click.UsageError(f"{exc.args[0]}; {available}")
    _check_flags_used(ids, {"--n-max": n_max, "--order": order, "--k": k_raw})
    k_list = _parse_k_list(k_raw)
    _emit_reports(
        lambda: verify.run_checks(ids, n_max=n_max, order=order, k_list=k_list), output
    )


@main.command()
@click.option("--id", "entry_id", required=True, help="Identity catalog entry id.")
@click.option("--order", type=SIZE, default=verify.DEFAULT_IDENTITY_ORDER,
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def identity(entry_id, order, output):
    """Check one identity-catalog entry at the given truncation order."""
    if entry_id not in identities.CATALOG:
        raise click.UsageError(
            f"unknown identity {entry_id!r}; available: {', '.join(sorted(identities.CATALOG))}"
        )
    _emit_reports(lambda: [verify.check_identity(entry_id, order)], output)


@main.command()
@click.option("--stat", required=True, type=click.Choice(tables.STATISTICS))
@click.option("--k", type=int, default=None)
@click.option("--n-max", type=SIZE, default=25, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def crosscheck(stat, k, n_max, output):
    """Compare the GF-built table against the enumeration oracle."""
    _check_k(stat, k)
    _check_oracle_ceiling(stat, n_max)

    def reports():
        gf = tables.build_table(stat, n_max, "gf", k=k)
        oracle = tables.build_table(stat, n_max, "oracle", k=k)
        return [verify.check_table_consistency(gf, oracle)]

    _emit_reports(reports, output)


if __name__ == "__main__":
    main()
