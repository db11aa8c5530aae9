"""The README's examples run as written: every command of its "Command line"
block through ``python -m heunkit``, with the config file from its ini block
and a small ODE file (a ``--grid-out`` file must exist and start with the
grid header), and its "Library example" as a script. Its "Command line"
section names every option of ``cli.VERBS`` and no other."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import heunkit
from heunkit.cli import VERBS

ROOT = Path(__file__).resolve().parents[1]
ODE_LINE = "ode p_num=[1] p_den=[0,1] q_num=[1] q_den=[0,0,1]\n"


def _section(heading):
    """The text of the README section with this heading."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(section, lang):
    """The ```lang code blocks of the README section with this heading."""
    return re.findall(rf"```{lang}\n(.*?)```", _section(section), re.S)


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
        if "--grid-out" in argv:
            grid = tmp_path / argv[argv.index("--grid-out") + 1]
            assert grid.read_text().startswith("mu,theta,psi,residual\n"), argv


def test_readme_library_example(tmp_path):
    (script,) = _blocks("Library example", "python")
    p = _run([sys.executable, "-c", script], tmp_path)
    assert p.returncode == 0, p.stderr
    assert "SingularPoint(" in p.stdout


def test_readme_names_every_option():
    named = set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)",
                           _section("Command line")))
    assert named == {name for options in VERBS.values() for name in options}
