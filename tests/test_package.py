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


def test_a_name_loads_only_its_submodule():
    code = ("import sys, cranktab; cranktab.Series; "
            "print(*sorted(m for m in sys.modules if m.startswith('cranktab')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "cranktab cranktab.series\n"


def test_report_names_resolve_to_the_catalog_module():
    # one report type and one check_identity, named by the root, verify and identities
    from cranktab import identities

    assert cranktab.CheckReport is identities.CheckReport is verify.CheckReport
    assert cranktab.check_identity is identities.check_identity is verify.check_identity
    code = ("import sys, cranktab; cranktab.check_identity; "
            "print(*sorted(m for m in sys.modules if m.startswith('cranktab')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "cranktab cranktab.identities cranktab.series\n"
