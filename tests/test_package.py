"""The package root: its public names resolve lazily to their submodules."""

import subprocess
import sys
from pathlib import Path

import pytest

import cranktab
from cranktab import cli, verify

SRC = Path(cranktab.__file__).resolve().parents[1]


def test_public_names_are_the_objects_of_their_submodules():
    for name in cranktab.__all__:
        obj = getattr(cranktab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("cranktab."), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cranktab import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(cranktab, name) for name in cranktab.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cranktab.no_such_name


def test_parser_vocabulary_is_defined_once():
    assert cranktab.STATISTICS is cli.STATISTICS
    assert cranktab.DEFAULT_IDENTITY_ORDER is verify.DEFAULT_IDENTITY_ORDER


def _loaded_after(code):
    """The cranktab modules that a fresh interpreter has loaded after running ``code``."""
    code += "; import sys; print(*sorted(m for m in sys.modules if m.startswith('cranktab')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_a_name_loads_only_its_submodule():
    assert _loaded_after("import cranktab; cranktab.Series") == ["cranktab", "cranktab.series"]


def test_report_names_resolve_to_the_catalog_module():
    # one report type, named by the root, verify and identities, and one check_identity
    from cranktab import identities

    assert cranktab.CheckReport is identities.CheckReport is verify.CheckReport
    assert cranktab.check_identity is identities.check_identity
    assert _loaded_after("import cranktab; cranktab.check_identity") == [
        "cranktab", "cranktab.identities", "cranktab.series"]


def test_a_catalog_only_verify_run_loads_no_gf_module():
    # verify loads bivariate in its column passes, which a run of euler alone has none of
    assert _loaded_after("from cranktab import verify; verify.run_checks(['euler'], order=20)") == [
        "cranktab", "cranktab.identities", "cranktab.series", "cranktab.verify"]
