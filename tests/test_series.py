import cmath
import random

import pytest

from heunkit.errors import LogarithmicCase, NotRegular, OutsideRadius
from heunkit.heun import GeneralHeunParams, general_heun, heun_series
from heunkit.ode import LinearODE, ode_residual
from heunkit.series import LocalSeries, _window, eval_local, \
    frobenius_series, sum_until


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


def reference_sum_until(weights, lead, rho, cols, r, tol, max_terms,
                        pivot_floor=0.0):
    """sum_until as one generic loop over any number of columns: the weights
    of each order listed with their indices, then every column summed over
    that list. Kept as the oracle of the kernel's one-column and pair
    loops, which must agree with it bit for bit."""
    pa, pb, pc = weights[lead]
    higher = [(d - lead, w) for d, w in enumerate(weights) if d > lead]
    window = _window(weights, lead)
    n = len(cols[0])
    rn = r ** (n - 1)
    errs = []
    while n <= max_terms:
        x = n + rho
        pivot = (pa * x + pb) * x + pc
        if abs(pivot) <= pivot_floor * max(1.0, n * n):
            raise LogarithmicCase(f"pivot vanishes at order {n}")
        ws = []
        for back, (wa, wb, wc) in higher:
            m = n - back
            if m < 0:
                break
            y = m + rho
            ws.append((m, (wa * y + wb) * y + wc))
        big = 0.0
        for h in cols:
            acc = 0j
            for m, wgt in ws:
                acc += wgt * h[m]
            h.append(-acc / pivot)
            mag = abs(h[n])
            if mag > big or mag != mag:
                big = mag
        rn *= r
        errs.append(rn * max(1.0, n / r) * big)
        if errs[-1] <= tol and n > window and sum(errs[-window:]) <= tol:
            return True
        n += 1
    return False


def _random_recurrence(rng, lead, depth):
    """lead + 1 + depth weight triples with complex entries, about a fifth
    of them zero; the pivot triple has no zero a_d."""
    def entry():
        return 0j if rng.random() < 0.2 else complex(rng.uniform(-2, 2),
                                                      rng.uniform(-2, 2))
    weights = [(entry(), entry(), entry()) for _ in range(lead + 1 + depth)]
    pa, pb, pc = weights[lead]
    weights[lead] = (pa or 1.0 + 0.5j, pb, pc)
    return weights


def _run_both(weights, lead, rho, cols, *args):
    """(result or the LogarithmicCase order, columns) of the kernel and of
    the reference on copies of the same columns."""
    out = []
    for fn in (sum_until, reference_sum_until):
        copy = [list(h) for h in cols]
        try:
            result = fn(weights, lead, rho, copy, *args)
        except LogarithmicCase:
            result = ("log", len(copy[0]))
        out.append((result, copy))
    return out


@pytest.mark.parametrize("lead", [0, 1, 2])
@pytest.mark.parametrize("ncols", [1, 2])
def test_kernel_matches_reference_loop(lead, ncols):
    """On seeded random recurrences (complex rho, weights with zero entries,
    depth 1 to 4) the kernel appends exactly the reference's coefficients,
    compared with ==, and returns what it returns: a positive tol, where
    the tail rule ends some sums and not others, and a negative tol, which
    fixes the length."""
    rng = random.Random(1000 * lead + ncols)
    held = 0
    for _ in range(40):
        weights = _random_recurrence(rng, lead, rng.randint(1, 4))
        rho = 0j if lead == 0 else complex(rng.uniform(-1, 1),
                                           rng.uniform(-1, 1))
        start = 2 if lead == 0 else 1
        cols = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(start)] for _ in range(ncols)]
        r = rng.uniform(0.05, 0.6)
        for tol, max_terms in ((1e-12, 80), (-1.0, 30)):
            (got, got_cols), (want, want_cols) = _run_both(
                weights, lead, rho, cols, r, tol, max_terms)
            assert got == want
            assert got_cols == want_cols
            assert len(got_cols[0]) <= max_terms + 1
            held += got is True
    assert 0 < held < 40  # the tail rule held for some sums, not all


@pytest.mark.parametrize("ncols", [1, 2])
def test_kernel_raises_logarithmic_case_at_the_reference_order(ncols):
    """A pivot P_lead(x) with a root at x = 5 + rho: with pivot_floor
    1e-10 the kernel and the reference both raise LogarithmicCase at order
    5, after the same coefficients of orders 1 to 4."""
    rng = random.Random(7 + ncols)
    lead, rho = 1, complex(0.3, -0.2)
    x1, x2 = 5 + rho, complex(-2.5, 0.7)
    weights = _random_recurrence(rng, lead, 2)
    weights[lead] = (1.0 + 0j, -(x1 + x2), x1 * x2)
    cols = [[1.0 + 0j] for _ in range(ncols)]
    (got, got_cols), (want, want_cols) = _run_both(
        weights, lead, rho, cols, 0.4, 1e-12, 60, 1e-10)
    assert got == want == ("log", 5)
    assert got_cols == want_cols
