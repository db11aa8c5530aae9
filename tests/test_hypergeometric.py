import numpy as np

from heunkit.ode import LinearODE, ode_residual
from mpmath_reference import gauss_sample, kummer_sample, near_pole


def test_gauss_ode_residual():
    rng = np.random.default_rng(17)
    count = 0
    while count < 100:
        a, b = (complex(x, y) for x, y in rng.normal(0, 0.7, (2, 2)))
        c = complex(*rng.normal(0, 0.7, 2)) + 1.5
        if near_pole(c):
            continue
        z = complex(*rng.normal(0, 0.25, 2))
        if abs(z) > 0.8 or min(abs(z), abs(z - 1)) < 1e-3:
            continue
        # z (1 - z) w'' + (c - (1 + a + b) z) w' - a b w = 0
        ode = LinearODE.from_polynomials([0, 1, -1], [c, -(1 + a + b)],
                                         [-a * b])
        assert ode_residual(ode, [gauss_sample(a, b, c, z)]) <= 1e-10
        count += 1


def test_kummer_ode_residual():
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        a = complex(*rng.normal(0, 0.7, 2))
        c = complex(*rng.normal(0, 0.7, 2)) + 1.5
        if near_pole(c):
            continue
        z = complex(*rng.normal(0, 0.8, 2))
        if abs(z) < 1e-3:
            continue
        # z w'' + (c - z) w' - a w = 0
        ode = LinearODE.from_polynomials([0, 1], [c, -1], [-a])
        assert ode_residual(ode, [kummer_sample(a, c, z)]) <= 1e-10
        count += 1
