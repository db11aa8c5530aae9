"""The README's examples run as written: every command of its "Command line"
block through ``python -m heunkit``, with the config file from its ini block
and a small ODE file, and its "Library example" as a script."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import heunkit

ROOT = Path(__file__).resolve().parents[1]
ODE_LINE = "ode p_num=[1] p_den=[0,1] q_num=[1] q_den=[0,0,1]\n"


def _blocks(section, lang):
    """The ```lang code blocks of the README section with this heading."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def _run(argv, cwd):
    src = str(Path(heunkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True)


def test_readme_command_line_examples(tmp_path):
    (tmp_path / "run.cfg").write_text(_blocks("Command line", "ini")[0])
    (tmp_path / "my_equation.ode").write_text(ODE_LINE)
    (shell,) = _blocks("Command line", "sh")
    commands = [shlex.split(line) for line in
                shell.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "heunkit"
        p = _run([sys.executable, "-m", "heunkit", *argv[1:]], tmp_path)
        assert p.returncode == 0, (argv, p.stderr)
        assert p.stdout and "Traceback" not in p.stderr, argv


def test_readme_library_example(tmp_path):
    (script,) = _blocks("Library example", "python")
    p = _run([sys.executable, "-c", script], tmp_path)
    assert p.returncode == 0, p.stderr
    assert "SingularPoint(" in p.stdout
