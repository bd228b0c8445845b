"""The README's examples run: the "Library use" block prints what its comments
say, and each command of the "Command line" block exits 0."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def _library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs_as_shown():
    code = _library_use_block()
    shown = [line.split("# ", 1)[1] for line in code.splitlines()
             if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == shown


def _command_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("cranktab ")]


def test_readme_command_block_exits_0():
    commands = _command_lines()
    assert len(commands) == 10
    # no __pycache__ is written into the checkout by the child processes
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for _, *args in commands:
        proc = subprocess.run([sys.executable, "-m", "cranktab.cli", *args], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), (args, proc.stderr)
