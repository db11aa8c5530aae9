import cmath

import pytest

from heunkit.errors import LogarithmicCase, NotRegular, OutsideRadius
from heunkit.heun import GeneralHeunParams, general_heun, heun_series
from heunkit.ode import LinearODE, ode_residual
from heunkit.series import LocalSeries, eval_local, frobenius_series


def termwise_second_derivative(series, z):
    s = complex(z) - series.center
    rho = series.exponent
    return sum(h * (rho + j) * (rho + j - 1.0) * s ** (rho + j - 2.0)
               for j, h in enumerate(series.coeffs))


def test_generic_series_matches_heun_recurrence():
    """heun_series is the generic Frobenius series with Heun's labels. The
    generic builder's own exponents match the labelled ones (it orders by
    real part; the labels pin 'first' to exponent 0), and given the
    labelled exponents it returns the Heun series exactly, centre and
    radius included: general_heun keeps the exact points 0, 1, f."""
    params = GeneralHeunParams(0.31 + 0.1j, 0.77, 1.23, 0.62,
                               0.31 + 0.1j + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    ode = general_heun(params)
    for center, second in ((0j, 1 - params.c), (1.0 + 0j, 1 - params.d),
                           (2.5 + 0j, 1 - params.e)):
        computed = [frobenius_series(ode, center, branch, 40).exponent
                    for branch in ("first", "second")]
        for branch in ("first", "second"):
            dedicated = heun_series(params, center, branch, 40)
            assert min(abs(e - dedicated.exponent) for e in computed) < 1e-9
            generic = frobenius_series(ode, center, branch, 40,
                                       exponents=(0j, second))
            assert generic == dedicated
            assert generic.center == center


def test_generic_series_on_confluent_hypergeometric():
    # z w'' + (c - z) w' - a w = 0 at 0: Kummer series, infinite radius
    a, c = 0.31, 1.23
    ode = LinearODE.from_polynomials([0, 1], [c, -1], [-a])
    ser = frobenius_series(ode, 0j, "first", 40)
    assert ser.radius == float("inf")
    # a z0 within CLUSTER_REL of the singular point expands about the point
    assert frobenius_series(ode, 1e-12, "first", 40) == ser
    coeff = 1.0 + 0j
    for k, h in enumerate(ser.coeffs):
        assert abs(h - coeff) < 1e-12
        coeff *= (a + k) / ((c + k) * (k + 1.0))


def test_series_residual_inside_half_radius():
    params = GeneralHeunParams(0.4, 0.6, 0.9, 0.7, 0.4 + 0.6 + 1 - 0.9 - 0.7,
                               2.0, 0.2)
    ode = general_heun(params)
    for branch in ("first", "second"):
        ser = frobenius_series(ode, 0j, branch, 80)
        samples = []
        for ang in (0.5, 2.2, 4.0):
            z = 0.5 * ser.radius * cmath.exp(1j * ang)
            w, dw, _ = eval_local(ser, z)
            samples.append((z, w, dw, termwise_second_derivative(ser, z)))
        assert ode_residual(ode, samples) <= 1e-8


def test_second_branch_log_case_refused():
    # equal exponents (0, 0) at u = 0 when the double-pole term vanishes
    ode = LinearODE.from_coefficients([-1.0, 2.0], [0.0, -1.0, 1.0],
                                      [0.0, 1.0, -3.0, 2.0],
                                      [0.0, 0.0, 4.0, -8.0, 4.0])
    with pytest.raises(LogarithmicCase):
        frobenius_series(ode, 0j, "second", 10)
    first = frobenius_series(ode, 0j, "first", 10)
    assert abs(first.exponent) < 1e-10


def test_not_regular_rejected():
    ode = LinearODE.from_polynomials([1], [0], [1])
    with pytest.raises(NotRegular):
        frobenius_series(ode, 0.5, "first", 10)  # ordinary point
    # irregular point (double pole of p)
    ode2 = LinearODE.from_coefficients([1.0], [0, 0, 1.0], [0.0], [1.0])
    with pytest.raises(NotRegular):
        frobenius_series(ode2, 0j, "first", 10)


def test_eval_local_boundary():
    params = GeneralHeunParams(1, 1, 1, 1, 1, 2, 0)
    ode = general_heun(params)
    ser = frobenius_series(ode, 0j, "first", 10)
    with pytest.raises(OutsideRadius):
        eval_local(ser, 1.0 + 0j)


def test_eval_local_tail_uses_last_two_terms():
    # the last coefficient is 0: a last-term estimate would report 0
    ser = LocalSeries(0j, 0j, (1.0, 0.5, 0.25, 0.0), 10.0)
    val = eval_local(ser, 1.0)
    assert val.tail == 0.25
    assert val.w == 1.75


def test_recurrence_at_an_ordinary_point_is_taylor():
    # w'' + w = 0 at z = 0: lead 0, rho 0; columns cos and sin
    from math import factorial

    from heunkit.series import recurrence_weights, sum_until

    cols = [[1.0, 0.0], [0.0, 1.0]]
    # a negative tol never holds: ten terms, orders 2 to 11
    assert not sum_until(recurrence_weights((1.0,), (0.0,), (1.0,)),
                         0, 0j, cols, 1.0, -1.0, 11)
    for k in range(12):
        cos_k = 0.0 if k % 2 else (-1) ** (k // 2) / factorial(k)
        sin_k = (-1) ** (k // 2) / factorial(k) if k % 2 else 0.0
        assert abs(cols[0][k] - cos_k) <= 1e-15
        assert abs(cols[1][k] - sin_k) <= 1e-15


def test_helicoid_point_against_mpmath_recurrence():
    """The corpus equation helicoid-boundary-algebraic at u = -1, where A has
    a simple root: both branches against the same recurrence run at 50 digits
    from the printed A, B, C (ak = 1, x0 = 0.3), shifted exactly to -1."""
    mp = pytest.importorskip("mpmath").mp
    from math import comb

    from heunkit.corpus import canonical_corpus

    ode = {name: o for name, o, _ in canonical_corpus()}[
        "helicoid-boundary-algebraic"]
    n_terms = 40
    with mp.workdps(50):
        x0 = mp.mpf(0.3)
        g = mp.mpf(1) / 2
        em, ep, ch = mp.exp(-2 * x0), mp.exp(2 * x0), mp.cosh(2 * x0)
        polys = ([0, 0, 0, 4, 4],
                 [0, 0, mp.mpc(4, 2), mp.mpc(4, -2)],
                 [g * ep, g * (ch + ep), g * (em + ch), g * em])
        # coefficients of P(s - 1)
        a, b, c = ([sum(P[j] * comb(j, k) * (-1) ** (j - k)
                        for j in range(k, len(P))) for k in range(len(P))]
                   for P in polys)

        def weight(d, x):
            ad = a[d] if d < len(a) else 0
            bd = b[d - 1] if 1 <= d <= len(b) else 0
            cd = c[d - 2] if 2 <= d < len(c) + 2 else 0
            return ad * x * (x - 1) + bd * x + cd

        lead = 1
        assert a[0] == 0 and b[0] != 0
        roots = sorted((mp.mpf(0), 1 - b[0] / a[1]), key=lambda r: -mp.re(r))
        for branch, rho in zip(("first", "second"), roots):
            h = [mp.mpf(1)]
            for n in range(1, n_terms + 1):
                acc = sum(weight(n + lead - m, m + rho) * h[m]
                          for m in range(n))
                h.append(-acc / weight(lead, n + rho))
            ser = frobenius_series(ode, -1.0, branch, n_terms)
            assert abs(ser.exponent - complex(rho)) <= 1e-14
            assert ser.center == -1.0
            biggest = max(abs(x) for x in h)
            err = max(abs(x - complex(y)) for x, y in zip(ser.coeffs, h))
            assert err <= 1e-13 * float(biggest), (branch, err / biggest)


def test_eval_local_sums_the_prefix_a_point_needs(monkeypatch):
    """A Gauss series summed for s = 0.95 (about 600 terms) and evaluated
    nearer its centre: the prefix Horner stops at gives w and w' within
    1e-15 of the full Horner sum, relative to max(1, |full|), in far fewer
    terms, and tail is still the last two stored terms at s."""
    import math

    import heunkit.series as series
    from heunkit.scenarios import _gauss_series

    ser = _gauss_series((1 + math.sqrt(3)) / 2, (1 - math.sqrt(3)) / 2, 1.0,
                        0.95)
    assert len(ser.coeffs) > 500
    used = []
    horner = series._horner

    def spy(h, s):
        used.append(len(h))
        return horner(h, s)

    monkeypatch.setattr(series, "_horner", spy)
    for s, most in ((0.05, 30), (0.5, 100), (0.9, len(ser.coeffs))):
        val = eval_local(ser, s)
        assert used.pop() <= most
        w, dw = horner(ser.coeffs, s)
        assert abs(val.w - w) <= 1e-15 * max(1.0, abs(w))
        assert abs(val.dw - dw) <= 1e-15 * max(1.0, abs(dw))
        assert val.tail == max(abs(h) * s ** k for k, h in
                               enumerate(ser.coeffs[-2:], len(ser.coeffs) - 2))


def test_a_nan_column_never_meets_the_tail_rule():
    """w'' + w = 0 with a second column that is NaN from its first term: the
    sum over both columns never ends by the tail rule (the largest term of
    the two is NaN, not the first column's), so a Taylor step raises the
    typed StepUnderflow instead of returning NaN."""
    from heunkit.errors import StepUnderflow
    from heunkit.series import recurrence_weights, sum_until, transport

    nan = float("nan")
    cols = [[1.0, 0.0], [nan, 0.0]]
    assert not sum_until(recurrence_weights((1.0,), (0.0,), (1.0,)),
                         0, 0j, cols, 0.5, 1e-12, 60)
    ode = LinearODE.from_polynomials([1.0], [0j], [1.0])
    with pytest.raises(StepUnderflow):
        transport(ode.cleared(), [0j, 0.5 + 0j], [(1.0, 0.0), (0.0, nan)],
                  1e-12)
