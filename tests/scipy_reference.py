"""Test-side scipy references for heunkit's integrators.

heunkit needs no scipy at run time; these independent methods let the
tests compare its Taylor continuation and its closed-form Abel integral
with something other than themselves.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp

from heunkit.engine import SolutionState


def dop853(pfun, qfun, init, path, tol):
    """w'' + p w' + q w = 0 along a polyline by scipy's DOP853 on the
    real 4-vector (w, w'), with each segment parametrized as
    z(s) = za + s (zb - za), s in [0, 1]."""
    y = np.array([init.w.real, init.w.imag, init.dw.real, init.dw.imag])
    for za, zb in path.segments:
        dz = zb - za
        if dz == 0:
            continue

        def rhs(s, v, za=za, dz=dz):
            z = za + s * dz
            w, dw = complex(v[0], v[1]), complex(v[2], v[3])
            r0, r1 = dw * dz, -(pfun(z) * dw + qfun(z) * w) * dz
            return (r0.real, r0.imag, r1.real, r1.imag)

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=tol,
                        atol=tol)
        assert sol.success, sol.message
        y = sol.y[:, -1]
    return SolutionState(path.vertices[-1], complex(y[0], y[1]),
                         complex(y[2], y[3]))


def quad_p_along(ode, path):
    """The integral of p(z) dz along a polyline by adaptive quadrature of
    the real and imaginary parts on each segment."""
    total = 0j
    for za, zb in path.segments:
        dz = zb - za

        def part(s, take, za=za, dz=dz):
            return take(ode.p(za + s * dz) * dz)

        total += complex(*(quad(part, 0.0, 1.0, args=(take,), epsabs=1e-13,
                                epsrel=1e-13, limit=200)[0]
                           for take in (lambda v: v.real, lambda v: v.imag)))
    return total
