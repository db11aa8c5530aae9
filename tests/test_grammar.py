import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heunkit.errors import CollidingSingularities, GrammarError, \
    MalformedComplex
from heunkit.grammar import (format_complex, format_ode, parse_complex,
                             parse_ode, parse_params_line)
from heunkit.heun import (KIND_PARAMS, ConfluentFormParams, GeneralHeunParams,
                          confluent_params_from_text, heun_params_from_text)
from heunkit.ode import LinearODE


def heun_params_to_text(params):
    """The 'heun ...' line of params, each value by format_complex."""
    return "heun " + " ".join(
        f"{name}={format_complex(getattr(params, name))}" for name in "abcdefq")


def confluent_params_to_text(cf):
    """The 'cform kind=... ...' line of cf, each value by format_complex."""
    body = " ".join(f"{name}={format_complex(cf.params[name])}"
                    for name in KIND_PARAMS[cf.kind])
    return f"cform kind={cf.kind} {body}"


@pytest.mark.parametrize("text,value", [
    ("1", 1.0),
    ("-2.5e-3", -0.0025),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("2i", 2j),
    ("i", 1j),
    ("-i", -1j),
    ("+0.5i", 0.5j),
    ("3.25", 3.25),
    ("2i+1", 1 + 2j),
    (" 1 + 2 i ", 1 + 2j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == complex(value)


@pytest.mark.parametrize("bad", ["", "1+2j", "1+", "++1", "1+2i+3", "abc",
                                 "1 2", "i2"])
def test_parse_complex_rejects(bad):
    with pytest.raises(MalformedComplex):
        parse_complex(bad)


def test_format_complex_roundtrip():
    for z in (1.0, -2.5e-3, 1 + 2j, -0.125j, 0.1 + 0.2j):
        assert parse_complex(format_complex(z)) == complex(z)


def test_parse_ode_roundtrip():
    text = "ode p_num=[1,2] p_den=[0,1] q_num=[1+1i] q_den=[0,0,1]"
    ode = parse_ode(text)
    z = 0.7 + 0.3j
    assert abs(ode.p(z) - (1 + 2 * z) / z) < 1e-12
    assert abs(ode.q(z) - (1 + 1j) / z ** 2) < 1e-12
    again = parse_ode(format_ode(ode))
    assert abs(again.p(z) - ode.p(z)) < 1e-12
    assert abs(again.q(z) - ode.q(z)) < 1e-12


def test_parse_ode_is_whitespace_insensitive():
    a = parse_ode("ode p_num=[1, 2] p_den=[ 0,1]  q_num=[1] q_den=[0, 0, 1]")
    b = parse_ode("ode p_num=[1,2] p_den=[0,1] q_num=[1] q_den=[0,0,1]")
    z = 1.3 + 0.2j
    assert a.p(z) == b.p(z) and a.q(z) == b.q(z)


def test_parse_ode_errors_carry_position():
    with pytest.raises(GrammarError) as err:
        parse_ode("ode p_num=[1,xx] p_den=[1] q_num=[1] q_den=[1]")
    assert err.value.position is not None
    with pytest.raises(GrammarError):
        parse_ode("ode p_num=[1] p_den=[1] q_num=[1]")  # missing q_den
    with pytest.raises(GrammarError):
        parse_ode("ode p_num=[1] p_den=[1] q_num=[1] q_den=[1] bogus=[1]")
    with pytest.raises(GrammarError):
        parse_ode("classify this")


def test_parse_params_line():
    head, params = parse_params_line("heun a=1 b=2 c=1+1i d=0.5 e=0.5 f=2 q=0")
    assert head == "heun"
    assert params["c"] == 1 + 1j
    head, params = parse_params_line("cform kind=biconfluent A0=1 A1=0 A2=0 A3=1")
    assert params["kind"] == "biconfluent"
    assert params["A0"] == 1.0
    with pytest.raises(GrammarError):
        parse_params_line("heun a=1 a=2")


def test_heun_params_text_roundtrip():
    params = GeneralHeunParams(0.31 + 0.1j, 0.77, 1.23, 0.62,
                               0.31 + 0.1j + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    again = heun_params_from_text(heun_params_to_text(params))
    for name in "abcdefq":
        assert getattr(again, name) == getattr(params, name)


def test_confluent_params_text_roundtrip():
    cf = ConfluentFormParams("biconfluent",
                             {"A0": 0.3, "A1": 0.5 + 1j, "A2": 0.7, "A3": 0.9})
    again = confluent_params_from_text(confluent_params_to_text(cf))
    assert again.kind == cf.kind
    assert again.params == cf.params


@pytest.mark.parametrize("bad", ["1e400", "1e400i", "-1e309+2i", "1-1e999i"])
def test_parse_complex_rejects_non_finite(bad):
    with pytest.raises(MalformedComplex):
        parse_complex(bad)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.builds(complex, _FINITE, _FINITE)
_SMALL = st.builds(complex, st.floats(-8, 8), st.floats(-8, 8))
# small Gaussian integers, so common roots of numerator and denominator
# (and their cancellation) are frequent
_GAUSS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_POLY = st.lists(st.one_of(_GAUSS, _SMALL), min_size=1, max_size=4)
_DEN = _POLY.filter(any)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_COMPLEX)
def test_complex_literal_round_trip(z):
    text = format_complex(z)
    assert parse_complex(text) == z
    assert format_complex(parse_complex(text)) == text


@settings(derandomize=True, max_examples=300, deadline=None)
@example([0], [1j], [0, 1j], [0, 2 + 2.5j])
@given(_POLY, _DEN, _POLY, _DEN)
def test_ode_line_round_trip(p_num, p_den, q_num, q_den):
    """format -> parse -> format prints the same line: a reduced p and q are
    their own reduction, so parsing their text changes no digit."""
    text = format_ode(LinearODE.from_coefficients(p_num, p_den, q_num, q_den))
    assert format_ode(parse_ode(text)) == text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_SMALL, min_size=6, max_size=6))
def test_heun_line_round_trip(values):
    a, b, c, d, f, q = values
    try:
        params = GeneralHeunParams(a, b, c, d, a + b + 1.0 - c - d, f, q)
    except CollidingSingularities:
        assume(False)
    text = heun_params_to_text(params)
    assert heun_params_to_text(heun_params_from_text(text)) == text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(KIND_PARAMS)), st.lists(_COMPLEX, min_size=5,
                                                     max_size=5))
def test_cform_line_round_trip(kind, values):
    cf = ConfluentFormParams(kind, dict(zip(KIND_PARAMS[kind], values)))
    text = confluent_params_to_text(cf)
    assert confluent_params_to_text(confluent_params_from_text(text)) == text
