import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from heunkit.cli import VERBS, parse_args
from heunkit.errors import MalformedComplex, MissingOption, UnknownVerb


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "heunkit", *args],
                          capture_output=True, text=True, **kw)


def test_parse_args_classify():
    cmd = parse_args(["classify", "--ode", "file.ode"])
    assert cmd.verb == "classify"


def test_parse_args_heun_eval():
    cmd = parse_args(["heun-eval", "--a", "1", "--b", "1", "--c", "1",
                      "--d", "1", "--e", "1", "--f", "2", "--q", "0",
                      "--z", "0.3+0i"])
    assert cmd.verb == "heun-eval"
    assert cmd.options["z"] == 0.3 + 0j


def test_parse_args_unknown_verb():
    with pytest.raises(UnknownVerb):
        parse_args(["frobnicate"])


def test_parse_args_missing_option():
    with pytest.raises(MissingOption):
        parse_args(["connect", "--a", "1"])


def test_parse_args_malformed_complex():
    with pytest.raises(MalformedComplex):
        parse_args(["heun-eval", "--a", "1x", "--b", "1", "--c", "1",
                    "--d", "1", "--e", "1", "--f", "2", "--q", "0",
                    "--z", "0"])


def test_cli_exit_codes():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("classify").returncode == 2  # no source given? -> usage
    # outside-radius evaluation is a domain error
    p = run_cli("heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                "--e", "1", "--f", "2", "--q", "0", "--z", "5")
    assert p.returncode == 1
    assert "OutsideRadius" in p.stderr


def test_cli_classify_file(tmp_path: Path):
    ode_file = tmp_path / "gauss.ode"
    ode_file.write_text(
        "ode p_num=[1.23,-2] p_den=[0,1,-1] q_num=[-0.2387] q_den=[0,1,-1]\n")
    p = run_cli("classify", "--ode", str(ode_file))
    assert p.returncode == 0
    data = json.loads(p.stdout)
    assert data["schema"] == 1
    kinds = {(pt["location"] if isinstance(pt["location"], str)
              else pt["location"]["re"]): pt["kind"] for pt in data["points"]}
    assert kinds == {0.0: "regular", 1.0: "regular", "inf": "regular"}


def test_cli_classify_corpus_csv():
    p = run_cli("classify", "--corpus", "confluent-hypergeometric",
                "--format", "csv")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "location,kind,rank,exponent1,exponent2"
    assert any(line.startswith("inf,irregular") for line in lines)


def test_cli_heun_eval_matches_library():
    from heunkit.heun import GeneralHeunParams, heun_value

    p = run_cli("heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                "--e", "1", "--f", "2", "--q", "0", "--z", "0.3+0.1i")
    assert p.returncode == 0
    data = json.loads(p.stdout)
    val, _ = heun_value(GeneralHeunParams(1, 1, 1, 1, 1, 2, 0), 0, "first",
                        0.3 + 0.1j)
    assert abs(complex(data["w"]["re"], data["w"]["im"]) - val.w) <= 1e-13


def test_cli_heun_eval_at_the_center():
    """z at the center: the exponent-0 branch prints w = 1 and exit 0; the
    second branch is a domain error (exit 1), never a traceback."""
    base = ["heun-eval", "--a", "0.31", "--b", "0.77", "--c", "1.23",
            "--d", "0.62", "--e", "0.23", "--f", "2.5", "--q", "0.4",
            "--z", "0"]
    p = run_cli(*base)
    assert p.returncode == 0, p.stderr
    data = json.loads(p.stdout)
    assert (data["w"]["re"], data["w"]["im"]) == (1.0, 0.0)
    p = run_cli(*base, "--branch", "second")
    assert p.returncode == 1
    assert "OutsideRadius" in p.stderr
    assert "Traceback" not in p.stderr


def test_cli_mathieu_table_q_zero_squares():
    p = run_cli("mathieu-table", "--q-values", "0", "--n-max", "4",
                "--parity", "even")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "n,parity,q,value,truncation"
    values = [row.split(",")[3] for row in lines[1:]]
    assert values == ["0", "1", "4", "9", "16"]


def test_cli_scenario_with_config(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = eguchi-hanson-radial\n"
                   "k = 1\na = 1\nm = 1\nlam = 2\n")
    p = run_cli("scenario", "--config", str(cfg))
    assert p.returncode == 0
    data = json.loads(p.stdout)
    assert data["scenario"] == "eguchi-hanson-radial"
    assert data["all_claims_passed"] is True
    kinds = {}
    for pt in data["classifications"]["radial"]:
        loc = pt["location"]
        key = loc if isinstance(loc, str) else round(loc["re"], 9)
        kinds[key] = pt["kind"]
    assert kinds == {0.0: "regular", 1.0: "regular", "inf": "irregular"}


def test_cli_scenario_set_overrides(tmp_path: Path):
    out = tmp_path / "report.json"
    p = run_cli("scenario", "--id", "nutku-radial", "--set", "Lambda=0",
                "--output", str(out))
    assert p.returncode == 0
    data = json.loads(out.read_text())
    assert data["inputs"]["Lambda"] == 0.0


def test_cli_scenario_grid_out(tmp_path: Path):
    grid = tmp_path / "grid.csv"
    p = run_cli("scenario", "--id", "helmholtz-elliptic",
                "--grid-out", str(grid))
    assert p.returncode == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "mu,theta,psi,residual"
    assert len(lines) == 401


def test_cli_scenario_text_format():
    p = run_cli("scenario", "--id", "stark", "--format", "text")
    assert p.returncode == 0
    assert "[PASS]" in p.stdout
    assert "all claims passed: True" in p.stdout


def test_cli_connect_identity():
    p = run_cli("connect", "--a", "0.31", "--b", "0.77", "--c", "1.23",
                "--d", "0.62", "--e", "0.23", "--f", "2.5", "--q", "0.1",
                "--from", "0", "--to", "0")
    assert p.returncode == 0
    data = json.loads(p.stdout)
    C = data["entries"]
    assert abs(C[0][0]["re"] - 1) < 1e-9 and abs(C[1][1]["re"] - 1) < 1e-9
    assert abs(C[0][1]["re"]) < 1e-9 and abs(C[1][0]["re"]) < 1e-9


def test_cli_connect_takes_numbers(capsys):
    """--from/--to take a number near 0, 1 or f, as heun-eval --center
    does: at f = 2.5, --to 2.5 prints the same matrix as --to f."""
    from heunkit.cli import main

    base = CONNECT_01[:-4] + ["--format", "text", "--from", "0", "--to"]
    printed = []
    for to in ("f", "2.5", "2.50000001"):
        assert main(base + [to]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].startswith("C11 = ")
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_cli_domain_errors(capsys):
    """Inputs the library refuses exit 1 with the error's name: a target
    basis at 1 with exponents 0 and 3e-9, and the Frobenius series at f
    where e = 0, q = a*b*f leave f an ordinary point."""
    from heunkit.cli import main

    heun = ["--a", "0.3", "--b", "0.4", "--c", "1.2", "--f", "2.5",
            "--q", "0.3"]
    cases = [
        (["connect", *heun, "--d", "0.999999997", "--e", "-0.499999997",
          "--from", "0", "--to", "1"], "IllConditioned"),
        (["heun-eval", *heun, "--d", "0.5", "--e", "0", "--z", "2.2",
          "--center", "2.5", "--branch", "first"], "NotRegular"),
    ]
    for argv, name in cases:
        status = main(argv)
        out, err = capsys.readouterr()
        assert status == 1, (argv, err)
        assert err.startswith(f"error: {name}:"), (argv, err)
        assert out == ""


GAUSS_HEUN = ["--a", "0.31", "--b", "0.77", "--c", "1.23", "--d", "0.85",
              "--e", "0", "--f", "2.5", "--q", "0.59675"]


def test_heun_eval_at_gauss_degeneration(capsys):
    """At e = 0, q = a*b*f the point f is ordinary. The series at 1 is
    centred on the exact point, and its first branch is the Gauss
    solution 2F1(a, b; a+b-c+1; 1-z)."""
    import mpmath
    from heunkit.cli import main

    for branch in ("second", "first"):
        assert main(["heun-eval", *GAUSS_HEUN, "--center", "1",
                     "--branch", branch, "--z", "1.2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["center"] == {"re": 1.0, "im": 0.0}
        assert out["radius"] == 1.0
    w = complex(out["w"]["re"], out["w"]["im"])
    want = complex(mpmath.hyp2f1(0.31, 0.77, 0.31 + 0.77 - 1.23 + 1, -0.2))
    assert abs(w - want) <= 1e-12


def test_heun_eval_center_labels(capsys):
    """--center takes the label f or a number near 0, 1 or f: at f = 2.5,
    f is the point 2.5, and 2 is the number 2, none of the three."""
    from heunkit.cli import main

    heun = ["--a", "0.31", "--b", "0.77", "--c", "1.23", "--d", "0.62",
            "--e", "0.23", "--f", "2.5", "--q", "0.1"]

    def run(center, z):
        assert main(["heun-eval", *heun, "--center", center, "--z", z]) == 0
        return capsys.readouterr().out

    at_f = run("2.5", "2.2+0.1i")
    assert run("f", "2.2+0.1i") == at_f
    assert main(["heun-eval", *heun, "--center", "2", "--z", "2.2+0.1i"]) == 2
    assert "is not one of 0, 1, f" in capsys.readouterr().err


def test_cli_determinism_repeated_runs():
    a = run_cli("scenario", "--id", "stark")
    b = run_cli("scenario", "--id", "stark")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_classify_heun_and_cform_lines(tmp_path: Path):
    p = run_cli("classify", "--text",
                "heun a=1 b=1 c=1 d=1 e=1 f=2 q=0", "--format", "csv")
    assert p.returncode == 0
    assert sum("regular" in line for line in p.stdout.splitlines()) == 4
    p = run_cli("classify", "--text",
                "cform kind=biconfluent A0=0.3 A1=0.5 A2=0.7 A3=0.9",
                "--format", "csv")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()[1:]
    assert len(lines) == 2


def test_every_scenario_runs_from_single_config(tmp_path: Path):
    from heunkit.scenarios import SCENARIOS

    for sid, (_, defaults) in SCENARIOS.items():
        lines = [f"scenario = {sid}"]
        for key, val in defaults.items():
            if val is None:
                continue
            lines.append(f"{key} = {val}")
        cfg = tmp_path / f"{sid}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        p = run_cli("scenario", "--config", str(cfg))
        assert p.returncode == 0, (sid, p.stderr)
        data = json.loads(p.stdout)
        assert data["all_claims_passed"] is True, sid


CONNECT_01 = ["connect", "--a", "0.31", "--b", "0.77", "--c", "1.23",
              "--d", "0.62", "--e", "0.23", "--f", "2.5", "--q", "0.1",
              "--from", "0", "--to", "1"]


def test_cli_transport_inputs(capsys):
    """Every bad transport input ends in a typed error and its exit code:
    (extra argv, exit status, text on stderr)."""
    from heunkit.cli import main
    from heunkit.engine import MIN_TOL

    cases = [
        (["--tol", "nan"], 2, "finite number"),
        (["--tol", "inf"], 2, "finite number"),
        (["--tol", "-1"], 2, "in (0, 1)"),
        (["--tol", "0"], 2, "--tol must be a finite number in (0, 1)"),
        (["--tol", "1"], 2, "in (0, 1)"),
        (["--tol", "abc"], 2, "--tol is not a number: 'abc'"),
        (["--q", "1e400"], 2, "--q: complex literal '1e400' is not finite"),
        (["--a", "1e400i"], 2, "--a: complex literal '1e400i' is not finite"),
        (["--to", "x"], 2, "center: bad complex literal 'x'"),
        (["--from", "0.5"], 2, "center (0.5+0j) is not one of 0, 1"),
        (["--tol", "1e-30"], 0, ""),
    ]
    for extra, code, message in cases:
        status = main(CONNECT_01 + extra)
        out, err = capsys.readouterr()
        assert status == code, (extra, err)
        assert message in err, (extra, err)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["tol"] == MIN_TOL


def test_cli_connect_nan_tolerance_exits_quickly():
    p = run_cli(*CONNECT_01, "--tol", "nan", timeout=60)
    assert p.returncode == 2
    assert "usage error" in p.stderr


def test_cli_parameter_inputs(capsys, tmp_path: Path):
    """Every bad scenario or table parameter ends in a usage error with a
    message, never a traceback: (argv, exit status, text on stderr). The
    type of a scenario value is checked by run_scenario, whose table
    test_scenarios.test_registry_rejects_values_of_the_wrong_type runs
    through both routes."""
    from heunkit.cli import main

    stark_cfg = tmp_path / "stark.cfg"
    stark_cfg.write_text("scenario = stark\n")
    cases = [
        (["scenario", "--id", "h2plus", "--config", str(stark_cfg)], 2,
         "scenario takes --id or a config's 'scenario' key, not both"),
        (["scenario", "--id", "nutku-radial", "--set", "a=-1"], 2,
         "a, k must be positive"),
        (["scenario", "--id", "boundary-dirac", "--set", "k=0"], 2,
         "need a > 0, k > 0, x0 >= 0"),
        (["scenario", "--id", "nutku-radial", "--set", "n=-1"], 2,
         "order must be a non-negative integer"),
        (["scenario", "--id", "nutku-radial", "--set", "grouping=x"], 2,
         "grouping must be"),
        (["scenario", "--id", "nutku-angular", "--set", "parity=x"], 2,
         "parity must be"),
        # q = 100 and orders past 7 pass their claims with the same gates
        (["scenario", "--id", "nutku-angular", "--set", "k=20"], 0, ""),
        (["scenario", "--id", "helmholtz-elliptic", "--set", "n=8"], 0, ""),
        (["scenario", "--id", "helmholtz-elliptic", "--set", "n=10"], 0, ""),
        (["scenario", "--id", "nutku-angular", "--set", "n=10"], 0, ""),
        (["scenario", "--id", "helmholtz-elliptic", "--set", "n=9",
          "--set", "parity=odd"], 0, ""),
        (["scenario", "--id", "helmholtz-elliptic", "--set", "n=11",
          "--set", "parity=odd"], 0, ""),
        (["scenario", "--id", "helmholtz-elliptic", "--set", "n=13",
          "--set", "parity=odd"], 0, ""),
        (["mathieu-table", "--q-values", "inf"], 2,
         "--q-values: bad complex literal 'inf' (at position 0)"),
        (["mathieu-table", "--q-values", "1,nan"], 2,
         "--q-values: bad complex literal 'nan' (at position 2)"),
        (["mathieu-table", "--q-values", "1e400"], 2,
         "--q-values: complex literal '1e400' is not finite"),
        (["mathieu-table", "--q-values", "abc"], 2,
         "--q-values: bad complex literal 'abc'"),
        (["mathieu-table", "--q-values", "0.5, 2", "--n-max", "1"], 0, ""),
        (["mathieu-table", "--q-values", ","], 2,
         "--q-values: empty complex literal (at position 0)"),
        (["mathieu-table", "--q-values", "1, ,2"], 2,
         "--q-values: empty complex literal (at position 2)"),
        (["mathieu-table", "--q-values", "1", "--n-max", "x"], 2,
         "--n-max: expects an integer, got 'x'"),
        (["mathieu-table", "--n-max", "1"], 2,
         "verb mathieu-table requires --q-values"),
        (["mathieu-table", "--q-values", "1", "--n-max", "-1"], 2,
         "--n-max must be at least 0"),
        (["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--e", "1", "--f", "2", "--q", "0", "--z", "0.3", "--n-terms", "60"],
         2, "unknown option --n-terms for verb heun-eval"),
        (["mathieu-table", "--q-values", "1", "--parity", "x"], 2,
         "--parity: verb mathieu-table accepts both, even, odd; got 'x'"),
        (["scenario", "--id", "nosuch"], 2, "unknown scenario 'nosuch'"),
        (["scenario", "--id", "stark", "--set", "E"], 2,
         "--set expects key=value"),
        (["scenario", "--id", "stark", "--set", "Z=1"], 2,
         "has no parameter 'Z'"),
        (["classify", "--corpus", "nosuch"], 2,
         "unknown corpus entry 'nosuch'"),
        (["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--e", "1", "--f", "2", "--q", "0", "--z", "0.3", "--branch", "x"],
         2, "branch must be 'first' or 'second'"),
        (["classify", "--corpus", "euler-type", "--format", "xml"], 2,
         "--format: verb classify accepts json, csv, text; got 'xml'"),
        (["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--e", "1", "--f", "2", "--q", "0", "--z", "0.3", "--format", "xml"],
         2, "--format: verb heun-eval accepts json, csv, text"),
        (["connect", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--e", "1", "--f", "2", "--q", "0", "--from", "0", "--to", "1",
          "--format", "csv"], 2, "--format: verb connect accepts json, text"),
        (["scenario", "--id", "stark", "--format", "csv"], 2,
         "--format: verb scenario accepts json, text"),
        (["mathieu-table", "--q-values", "1", "--format", "text"], 2,
         "--format: verb mathieu-table accepts csv, json"),
        (["classify", "--text", "x"], 2,
         "expected line to start with 'ode'"),
        (["classify", "--text", "ode p_num=[1] p_den=[1] q_num=[1]"], 2,
         "missing field 'q_den'"),
        (["classify", "--text", "cform kind=nosuch p=1"], 2,
         "unknown confluent form 'nosuch'"),
        (["classify", "--text", "cform kind=spheroidal p=1 q=0.5 g=1"], 2,
         "spheroidal expects parameters ['lam', 'm', 'p']"),
        # f far from 0 and 1 merges into infinity
        (["classify", "--text",
          "heun a=0.31 b=0.77 c=1.23 d=0.85 e=0 f=1e14 q=0.4"], 1,
         "merges into the point at infinity"),
        (["heun-eval", "--a", "0.31", "--b", "0.77", "--c", "1.23", "--d",
          "0.85", "--e", "0", "--f", "1e16", "--q", "0.4", "--z", "0.3"], 1,
         "merges into the point at infinity"),
        (["classify", "--text",
          "heun a=0.31 b=0.77 c=1.23 d=0.85 e=0 f=-1e20 q=0.4"], 1,
         "merges into the point at infinity"),
    ]
    for argv, code, message in cases:
        status = main(argv)
        out, err = capsys.readouterr()
        assert status == code, (argv, err)
        assert message in err, (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("usage error:"), (argv, err)
            assert out == ""


def test_cli_nutku_radial_on_imaginary_axis(capsys):
    """k=1, Lambda=3 puts the Mathieu parameter at -1.2e-15 + 2.236i, past
    the a_0/a_2 branch point; every claim passes."""
    from heunkit.cli import main

    assert main(["scenario", "--id", "nutku-radial", "--set", "k=1",
                 "--set", "Lambda=3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["claims"] and all(c["passed"] for c in report["claims"])


_NO_SCIPY_CHILD = """
import contextlib, io, json, sys
# from here on, importing a package of the test extra raises
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
import numpy as np
import heunkit.cli
from heunkit import engine, heun
from heunkit.scenarios import SCENARIOS

argvs = {argvs!r} + [["scenario", "--id", sid] for sid in sorted(SCENARIOS)]
statuses, claims = [], []
for argv in argvs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        statuses.append(heunkit.cli.main(argv))
    if argv[0] == "scenario":
        claims += [c["passed"] for c in json.loads(buf.getvalue())["claims"]]
# one op of the transport benchmark: three connection matrices, a loop, Abel
p = heun.GeneralHeunParams(0.31, 0.77, 1.23, 0.62, 0.23, 2.5, 0.1)
C01, C1f, C0f = (engine.connection_matrix(p, frm, to, tol=1e-11)
                 for frm, to in ((0, 1), (1, "f"), (0, "f")))
ode = heun.general_heun(p)
loop = engine.ComplexPath.circle(0j, 0.5, n=24)
(m11, m12), (m21, m22) = engine.loop_transfer_matrix(ode, loop).entries
S, z0 = engine.SolutionState, loop.vertices[0]
abel = engine.wronskian_abel_check(ode, (S(z0, 1, 0), S(z0, 0, 1)),
                                   (S(z0, m11, m21), S(z0, m12, m22)), loop)
print(json.dumps({{
    "verbs": sorted({{argv[0] for argv in argvs}}),
    "statuses": statuses,
    "claims": claims,
    "composition": float(np.max(np.abs((C01 @ C1f).as_array()
                                       - C0f.as_array()))),
    "abel": abel,
}}))
"""


def test_cheap_verbs_do_not_import_scipy():
    """In a fresh interpreter where importing scipy, mpmath or hypothesis
    fails, every CLI verb, every scenario (all claims passing) and one
    transport op (connection matrices, a loop and the Abel check) run: no
    run-time path loads a package of the test extra."""
    from heunkit.cli import VERBS

    argvs = [
        ["classify", "--corpus", "gauss-hypergeometric"],
        ["classify", "--text", "heun a=1 b=1 c=1 d=1 e=1 f=2 q=0"],
        ["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
         "--e", "1", "--f", "2", "--q", "0", "--z", "0.3+0.1i"],
        ["mathieu-table", "--q-values", "0,1,2", "--n-max", "4"],
        CONNECT_01,
    ]
    p = subprocess.run([sys.executable, "-c",
                        _NO_SCIPY_CHILD.format(argvs=argvs)],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    data = json.loads(p.stdout)
    assert data["verbs"] == sorted(VERBS)
    assert data["statuses"] == [0] * (len(argvs) + 8)
    assert data["claims"] and all(data["claims"])
    assert data["composition"] <= 1e-8
    assert data["abel"] <= 1e-8


_NO_NUMPY_CHILD = """
import contextlib, io, json, sys
import heunkit.cli

loaded = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        status = heunkit.cli.main(argv)
    loaded.append([argv[0], status, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def test_cheap_verbs_do_not_import_numpy():
    """In a fresh interpreter every CLI verb and all eight scenarios run
    through cli.main without loading numpy: roots, 2x2 algebra, the Gauss
    series, Mathieu characteristic values (Sturm counts for real q,
    Ehrlich-Aberth on the determinant for complex q) and Mathieu grid sums
    are pure Python, and heunkit has no run-time dependency."""
    from heunkit.cli import VERBS
    from heunkit.scenarios import SCENARIOS

    argvs = [
        ["classify", "--text", "heun a=1 b=1 c=1 d=1 e=1 f=2 q=0"],
        ["classify", "--text", "cform kind=spheroidal p=0.7 lam=1.1 m=1"],
        ["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
         "--e", "1", "--f", "2", "--q", "0", "--z", "0.3+0.1i"],
        CONNECT_01,
        ["mathieu-table", "--q-values", "0,1.3,25", "--n-max", "4"],
        ["mathieu-table", "--q-values", "0.7+0.4i", "--n-max", "2"],
        ["scenario", "--id", "nutku-radial", "--set", "Lambda=0.5"],
        *(["scenario", "--id", sid] for sid in sorted(SCENARIOS)),
    ]
    p = subprocess.run([sys.executable, "-c",
                        _NO_NUMPY_CHILD.format(argvs=argvs)],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert {argv[0] for argv in argvs} == set(VERBS)
    assert json.loads(p.stdout) == [[argv[0], 0, False] for argv in argvs]


def test_cli_exponent_overflow_is_a_domain_error():
    """An exponent 1 - c = -399.5 at |z| = 0.001 leaves the float range:
    heun-eval reports OverflowGuard with status 1, not a traceback."""
    p = run_cli("heun-eval", "--a", "0.31", "--b", "0.77", "--c", "400.5",
                "--d", "0.62", "--e", "-399.04", "--f", "2.5", "--q", "0.4",
                "--z", "0.001", "--branch", "second")
    assert p.returncode == 1
    assert "Traceback" not in p.stderr
    assert p.stderr.startswith("error: OverflowGuard:")


@pytest.mark.parametrize("argv, status, message", [
    (["scenario", "--id", "h2plus", "--set", "lam=1e200"], 1,
     "error: NonFiniteInput: polynomial coefficients must be finite"),
    (["scenario", "--id", "stark", "--set", "beta1=1e200"], 1,
     "error: StepUnderflow: a step of"),
    (["scenario", "--id", "boundary-dirac", "--set", "x0=100"], 1,
     "error: StepUnderflow: a step of"),
    (["scenario", "--id", "boundary-dirac", "--set", "x0=200"], 2,
     "x0 = 200: e^(4 x0) overflows"),
    (["scenario", "--id", "nutku-radial", "--set", "k=1e-300"], 2,
     "A = a^2 k^2 / 2 underflows to 0"),
    (["scenario", "--id", "nutku-radial", "--set", "a=1e-200"], 2,
     "a = 1e-200, k = 2: A = a^2 k^2 / 2 underflows to 0"),
    (["scenario", "--id", "nutku-radial", "--set", "Lambda=1e200"], 2,
     "a = 1, k = 2, Lambda = 1e+200: A = a^2 k^2 / 2 or B overflows"),
    (["scenario", "--id", "nutku-radial", "--set", "a=1e200"], 2,
     "a = 1e+200, k = 2, Lambda = 0.5: A = a^2 k^2 / 2 or B overflows"),
    (["scenario", "--id", "helmholtz-elliptic", "--set", "a=1e200"], 2,
     "h^2 = (a k)^2 / 4 overflows"),
    (["mathieu-table", "--q-values", "1e10i", "--n-max", "1"], 2,
     "|Im q| must be at most 300"),
    (["mathieu-table", "--q-values", "1", "--n-max", "5000"], 2,
     "--n-max must be at most 4079, got 5000"),
    (["scenario", "--id", "nutku-radial", "--set", "Lambda=1000"], 2,
     "|Im q| must be at most 300"),
    (["scenario", "--id", "nutku-angular", "--set", "n=1500"], 2,
     "nutku-angular supports orders n <= 300, got 1500"),
], ids=["h2plus-lam", "stark-beta1", "boundary-dirac-x0-100",
        "boundary-dirac-x0-200", "nutku-radial-k", "nutku-radial-a-small",
        "nutku-radial-Lambda-big", "nutku-radial-a-big", "helmholtz-a",
        "mathieu-table-imag-q", "mathieu-table-n-max", "nutku-radial-Lambda",
        "nutku-angular-n"])
def test_cli_extreme_values_exit_typed_and_quickly(argv, status, message):
    """Finite values whose derived quantities overflow, vanish or stall a
    Taylor step, and Mathieu inputs past the stated bounds, end within
    seconds in a typed error, not a traceback or a run of minutes."""
    p = run_cli(*argv, timeout=30)
    assert p.returncode == status, p.stderr
    assert "Traceback" not in p.stderr
    assert message in p.stderr


# every option value of the property test comes from this pool: malformed,
# boundary, non-finite, overflowing and complex numbers, a valid and an
# unknown scenario id
_ARGV_POOL = ["x", "0", "-1", "2.5", "nan", "1e400", "0.3+0.1i", "stark",
              "nosuch"]
# options that name files
_FILE_OPTIONS = {"output", "ode", "config", "grid-out"}


@st.composite
def _argv(draw):
    """A verb and a subset of its VERBS options, values from _ARGV_POOL. A
    required option is left out, and an optional one put in, a quarter of
    the time, so that some argv get past the parser."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    argv = [verb]
    for name, (_, required, _) in VERBS[verb].items():
        if name in _FILE_OPTIONS:
            continue
        if (draw(st.integers(0, 3)) > 0) == required:
            argv += [f"--{name}", draw(st.sampled_from(_ARGV_POOL))]
    return argv


@settings(derandomize=True, max_examples=300, deadline=2000)
@given(_argv())
# pool draws rarely meet the Fuchs relation, which an unknown --branch needs
# to be reached; this argv does
@example(["heun-eval", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--e", "1", "--f", "2", "--q", "0", "--z", "0.3", "--branch", "x"])
def test_cli_any_argv_exits_cleanly(argv):
    """Any argv drawn from the option table ends in exit status 0, 1 or 2;
    no exception escapes cli.main."""
    from heunkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), (argv, err.getvalue())
