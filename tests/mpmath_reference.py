"""Test-side mpmath references for the Gauss and Kummer functions.

heunkit sums no hypergeometric series of its own; these samples give the
tests values and derivatives of 2F1 and 1F1 to check equations against.
"""

import mpmath


def gauss_sample(a, b, c, z):
    """(z, F, F', F'') for F = 2F1(a, b; c; z) from mpmath, the derivatives
    by d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z) (DLMF 15.5.1)."""
    F0, F1, F2 = (complex(mpmath.hyp2f1(a + k, b + k, c + k, z))
                  for k in range(3))
    return (z, F0, a * b / c * F1,
            a * (a + 1) * b * (b + 1) / (c * (c + 1)) * F2)


def kummer_sample(a, c, z):
    """(z, M, M', M'') for M = 1F1(a; c; z) from mpmath, the derivatives by
    d/dz 1F1(a; c; z) = (a/c) 1F1(a+1; c+1; z) (DLMF 13.3.15)."""
    M0, M1, M2 = (complex(mpmath.hyp1f1(a + k, c + k, z)) for k in range(3))
    return (z, M0, a / c * M1, a * (a + 1) / (c * (c + 1)) * M2)


def near_pole(c):
    """True when c is within 1e-3 of an integer, where a pole may sit."""
    return abs(c.imag) < 1e-3 and abs(c.real - round(c.real)) < 1e-3
