"""Textual input formats.

ODE lines:        ode p_num=[c0,c1,...] p_den=[...] q_num=[...] q_den=[...]
Heun parameters:  heun a=1 b=1 c=1 d=1 e=1 f=2 q=0
Confluent forms:  cform kind=biconfluent A0=1 A1=0.5 A2=0 A3=1

Complex literals are written a+bi (also bare reals, "2i", "i", "-i").
Whitespace is insignificant everywhere except inside a number; parse
errors report the character position in the original string.
"""

from __future__ import annotations

import math
import re

from .errors import GrammarError, MalformedComplex
from .ode import LinearODE

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FIRST_TERM = re.compile(rf"[+-]?(?:{_NUM})?i|[+-]?{_NUM}")
_NEXT_TERM = re.compile(rf"[+-](?:{_NUM})?i|[+-]{_NUM}")


def parse_complex(text, position=0):
    """Parse one complex literal such as 1, -2.5e-3, 1+2i, 2i, -i.

    Whitespace is allowed around the sign between terms and before the
    trailing i, but not inside a number.
    """
    s = text.strip()
    s = re.sub(r"(?<=[0-9i.])\s*([+-])\s*", r"\1", s)
    s = re.sub(r"\s+i$", "i", s)
    if any(ch.isspace() for ch in s):
        raise MalformedComplex(f"bad complex literal {text!r}", position)
    if not s:
        raise MalformedComplex("empty complex literal", position)
    terms = []
    m = _FIRST_TERM.match(s)
    while m is not None:
        terms.append(m.group(0))
        if m.end() == len(s):
            break
        m = _NEXT_TERM.match(s, m.end())
    else:
        raise MalformedComplex(f"bad complex literal {text!r}", position)
    if m is None or m.end() != len(s) or len(terms) > 2:
        raise MalformedComplex(f"bad complex literal {text!r}", position)
    rv, iv = 0.0, 0.0
    seen_real = seen_imag = False
    for term in terms:
        if term.endswith("i"):
            if seen_imag:
                raise MalformedComplex(f"bad complex literal {text!r}", position)
            seen_imag = True
            body = term[:-1]
            if body in ("", "+"):
                iv = 1.0
            elif body == "-":
                iv = -1.0
            else:
                iv = float(body)
        else:
            if seen_real:
                raise MalformedComplex(f"bad complex literal {text!r}", position)
            seen_real = True
            rv = float(term)
    if not (math.isfinite(rv) and math.isfinite(iv)):
        raise MalformedComplex(f"complex literal {text!r} is not finite",
                               position)
    return complex(rv, iv)


def parse_complex_list(text, position=0):
    """Comma-separated complex literals; an error names its item's position."""
    out = []
    for item in text.split(","):
        out.append(parse_complex(item, position))
        position += len(item) + 1
    return out


def format_complex(z):
    """Render a complex number in the grammar's a+bi form, 17 significant digits."""
    z = complex(z)
    re_s = f"{z.real:.17g}"
    if z.imag == 0.0:
        return re_s
    im_s = f"{abs(z.imag):.17g}"
    sign = "+" if z.imag >= 0 else "-"
    if z.real == 0.0:
        return f"{'-' if z.imag < 0 else ''}{im_s}i"
    return f"{re_s}{sign}{im_s}i"


def _parse_list(text, base_pos):
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise GrammarError("expected [c0,c1,...] coefficient list", base_pos)
    inner = s[1:-1]
    if not inner.strip():
        raise GrammarError("empty coefficient list", base_pos)
    return parse_complex_list(inner, base_pos + 1)


def _split_assignments(text, start_pos):
    """Split 'key=value key=value ...' where values never contain spaces
    outside brackets. Returns list of (key, value, position-of-value)."""
    items = []
    i = start_pos
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        j = text.find("=", i)
        if j < 0:
            raise GrammarError(f"expected key=value, got {text[i:].strip()!r}", i)
        key = text[i:j].strip()
        if not key:
            raise GrammarError("missing key before '='", i)
        k = j + 1
        while k < n and text[k].isspace():
            k += 1
        if k < n and text[k] == "[":
            depth = 0
            m = k
            while m < n:
                if text[m] == "[":
                    depth += 1
                elif text[m] == "]":
                    depth -= 1
                    if depth == 0:
                        m += 1
                        break
                m += 1
            if depth != 0:
                raise GrammarError("unterminated coefficient list", k)
            value = text[k:m]
            i = m
        else:
            m = k
            while m < n and not text[m].isspace():
                m += 1
            value = text[k:m]
            i = m
        items.append((key, value, k))
    return items


def parse_ode(text):
    """Parse an 'ode ...' line into a LinearODE."""
    stripped = text.lstrip()
    lead = len(text) - len(stripped)
    if not stripped.startswith("ode"):
        raise GrammarError("expected line to start with 'ode'", lead)
    fields = {}
    for key, value, pos in _split_assignments(text, lead + 3):
        if key in fields:
            raise GrammarError(f"duplicate field {key!r}", pos)
        fields[key] = (value, pos)
    required = ("p_num", "p_den", "q_num", "q_den")
    for name in required:
        if name not in fields:
            raise GrammarError(f"missing field {name!r}", len(text))
    extra = set(fields) - set(required)
    if extra:
        name = sorted(extra)[0]
        raise GrammarError(f"unknown field {name!r}", fields[name][1])
    lists = {name: _parse_list(*fields[name]) for name in required}
    return LinearODE.from_coefficients(lists["p_num"], lists["p_den"],
                                       lists["q_num"], lists["q_den"])


def format_ode(ode):
    def fmt(poly):
        return "[" + ",".join(format_complex(c) for c in poly.coeffs) + "]"

    return (f"ode p_num={fmt(ode.p.num)} p_den={fmt(ode.p.den)} "
            f"q_num={fmt(ode.q.num)} q_den={fmt(ode.q.den)}")


def parse_params_line(text, expected_head=None):
    """Parse a 'head key=value ...' line into (head, {key: complex})."""
    stripped = text.lstrip()
    lead = len(text) - len(stripped)
    head = stripped.split(None, 1)[0] if stripped else ""
    if not head:
        raise GrammarError("empty parameter line", lead)
    if expected_head is not None and head != expected_head:
        raise GrammarError(f"expected {expected_head!r} line, got {head!r}", lead)
    params = {}
    for key, value, pos in _split_assignments(text, lead + len(head)):
        if key in params:
            raise GrammarError(f"duplicate parameter {key!r}", pos)
        if key == "kind":
            params[key] = value
        else:
            params[key] = parse_complex(value, pos)
    return head, params
