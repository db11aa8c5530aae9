import pytest

from heunkit.errors import GrammarError, MalformedComplex
from heunkit.grammar import (format_complex, format_ode, parse_complex,
                             parse_ode, parse_params_line)


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
    from heunkit.heun import (GeneralHeunParams, heun_params_from_text,
                              heun_params_to_text)

    params = GeneralHeunParams(0.31 + 0.1j, 0.77, 1.23, 0.62,
                               0.31 + 0.1j + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    again = heun_params_from_text(heun_params_to_text(params))
    for name in "abcdefq":
        assert getattr(again, name) == getattr(params, name)


def test_confluent_params_text_roundtrip():
    from heunkit.heun import (ConfluentFormParams, confluent_params_from_text,
                              confluent_params_to_text)

    cf = ConfluentFormParams("biconfluent",
                             {"A0": 0.3, "A1": 0.5 + 1j, "A2": 0.7, "A3": 0.9})
    again = confluent_params_from_text(confluent_params_to_text(cf))
    assert again.kind == cf.kind
    assert again.params == cf.params


@pytest.mark.parametrize("bad", ["1e400", "1e400i", "-1e309+2i", "1-1e999i"])
def test_parse_complex_rejects_non_finite(bad):
    with pytest.raises(MalformedComplex):
        parse_complex(bad)
