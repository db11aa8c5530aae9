"""Second-order linear ODEs continued along complex paths.

Rational coefficients (``integrate_path``, ``loop_transfer_matrix``,
``connection_matrix``) are continued by the Taylor re-expansion of
``series.transport``, whose docstring states the step rule, on the
equation cleared once to A w'' + B w' + C w = 0 (``LinearODE.cleared``).
This module keeps the path geometry, the entry points, the matrices and
the Abel check; it sums no series itself.

Tolerances must be finite numbers in (0, 1); values below 100 machine
epsilons are raised to that floor. Only rational equations are
transported: a trigonometric one is carried through an algebraic image
(boundary-dirac takes v = tan T). ``wronskian_abel_check`` integrates p in
closed form from its partial fractions. No run-time path loads scipy.

Connection matrices express the Frobenius basis at one singular point in
the basis at another by carrying both basis solutions to a matching point
inside the target convergence disk and solving the 2x2 system there.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import (
    DegenerateSystem,
    IllConditioned,
    InvalidTolerance,
    NonFiniteInput,
    SingularityTooClose,
)
from .heun import general_heun, heun_center, heun_value
from .poly import TAU_POLE
from .series import convergence_radius, point_segment_distance, transport

DEFAULT_TOL = 1e-10
MIN_TOL = 100.0 * sys.float_info.epsilon


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call. Nothing in
    heunkit calls it: it is kept only because perfbench/tracer.py wraps it
    by name, until ROADMAP item 1 lets the tracer skip missing names."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call. Nothing in heunkit
    calls it: it is kept only because perfbench/tracer.py wraps it by name,
    until ROADMAP item 1 lets the tracer skip missing names."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def integrate_callable(*args, **kwargs):
    """Removed: only rational equations are transported. The name is kept
    only because perfbench/tracer.py wraps it by name, until ROADMAP item 1
    lets the tracer skip missing names."""
    raise NotImplementedError("integrate_callable was removed")


def check_tolerance(tol, name="tol"):
    """tol as a float, raised to MIN_TOL. Raises InvalidTolerance unless it
    is a finite number with 0 < tol < 1."""
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise InvalidTolerance(f"{name} is not a number: {tol!r}")
    if not 0.0 < value < 1.0:
        raise InvalidTolerance(f"{name} must be a finite number in (0, 1), "
                               f"got {value!r}")
    return max(value, MIN_TOL)


@dataclass(frozen=True)
class ComplexPath:
    """Polyline in the complex plane."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        if not all(cmath.isfinite(v) for v in verts):
            raise NonFiniteInput(f"path vertices must be finite: {verts}")
        object.__setattr__(self, "vertices", verts)

    @property
    def segments(self):
        return list(zip(self.vertices[:-1], self.vertices[1:]))

    @staticmethod
    def circle(center, radius, n=24, start_angle=0.0):
        """Closed n-gon approximating a circle, traversed counterclockwise."""
        pts = [center + radius * cmath.exp(1j * (start_angle + 2.0 * math.pi * k / n))
               for k in range(n)]
        pts.append(pts[0])
        return ComplexPath(tuple(pts))


@dataclass(frozen=True)
class SolutionState:
    z: complex
    w: complex
    dw: complex


@dataclass(frozen=True)
class ConnectionMatrix:
    """2x2 matrix C with (basis_from) = C . (basis_to)."""

    entries: tuple  # ((c11, c12), (c21, c22))

    @property
    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def as_array(self):
        """The entries as a numpy array, numpy imported on the call. The
        tests and perfbench's transport oracle call it; heunkit does not."""
        import numpy as np
        return np.array(self.entries, dtype=complex)

    @property
    def condition_number(self):
        """2-norm condition number s1/s2 in closed form: s1**2 + s2**2 = F,
        the squared Frobenius norm, and s1 s2 = |det| give s1/s2 =
        (F + sqrt(F**2 - 4 |det|**2)) / (2 |det|); inf when singular."""
        det = abs(self.determinant)
        F = sum(abs(x) ** 2 for row in self.entries for x in row)
        return (F + math.sqrt(max(F * F - 4.0 * det * det, 0.0))) / (2.0 * det) \
            if det else math.inf

    @property
    def eigenvalues(self):
        """The roots of x**2 - tr x + det in closed form, the larger in
        modulus first: tr/2 +- sqrt(tr**2/4 - det), with the discriminant
        written as ((a - d)/2)**2 + b c so that it does not cancel, and the
        smaller root as det / larger, so that it does not either."""
        (a, b), (c, d) = self.entries
        half = (a + d) / 2.0
        root = cmath.sqrt(((a - d) / 2.0) ** 2 + b * c)
        big = half + root if abs(half + root) >= abs(half - root) else half - root
        return (big, self.determinant / big if big else 0j)

    def __matmul__(self, other):
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return ConnectionMatrix(((a * e + b * g, a * f + b * h),
                                 (c * e + d * g, c * f + d * h)))


def integrate_path(ode, init, path, tol=DEFAULT_TOL):
    """Continue a solution of a rational-coefficient LinearODE along a
    polyline.

    The initial state must sit on the first vertex; the result is the state
    at the last vertex. Raises InvalidTolerance / SingularityTooClose /
    StepUnderflow.
    """
    tol = check_tolerance(tol)
    if abs(init.z - path.vertices[0]) > 1e-9 * max(1.0, abs(init.z)):
        raise ValueError("initial state is not at the first path vertex")
    [(w, dw)] = transport(ode.cleared(), path.vertices, [(init.w, init.dw)],
                          tol)
    return SolutionState(path.vertices[-1], w, dw)


def integrate_p_along(ode, path):
    """The integral of p(z) dz along a polyline, in closed form.

    It uses the partial fractions of ode.p itself, not the cleared equation,
    so the Abel check stays independent of the transport it checks. The
    polynomial part and the poles of order >= 2 have single-valued
    antiderivatives; each simple-pole residue r at s adds
    r Log((zb - s) / (za - s)) per segment, which is exact because a
    straight segment that misses s turns arg(z - s) by less than pi.
    Raises SingularityTooClose when a segment passes within TAU_POLE
    (relative) of a pole of p.
    """
    quotient, principal = ode.p.partial_fractions()
    z0, z1 = path.vertices[0], path.vertices[-1]
    total = sum(c / (k + 1) * (z1 ** (k + 1) - z0 ** (k + 1))
                for k, c in enumerate(quotient))
    for s, (res, *higher) in principal:
        for za, zb in path.segments:
            d = point_segment_distance(s, za, zb)
            if d <= TAU_POLE * max(1.0, abs(s)):
                raise SingularityTooClose(
                    f"segment {za} -> {zb} passes within {d:.3e} of the "
                    f"pole {s} of p")
            total += res * cmath.log((zb - s) / (za - s))
        total += sum(c / (1 - j) * ((z1 - s) ** (1 - j) - (z0 - s) ** (1 - j))
                     for j, c in enumerate(higher, 2))
    return complex(total)


def wronskian(state1, state2):
    return state1.w * state2.dw - state2.w * state1.dw


def wronskian_abel_check(ode, pair_start, pair_end, path):
    """Relative deviation from the Wronskian identity
    W(z1) = W(z0) * exp(-int p dz) for two solutions integrated along `path`.

    pair_start/pair_end are (state of solution 1, state of solution 2) at
    the path's first/last vertex. Raises DegenerateSystem when |W(z0)| is
    below 1e-12 (the two solutions are not a fundamental system).
    """
    w0 = wronskian(*pair_start)
    w1 = wronskian(*pair_end)
    if abs(w0) < 1e-12:
        raise DegenerateSystem(f"|W(z0)| = {abs(w0):.3e}: not a fundamental pair")
    expected = w0 * cmath.exp(-integrate_p_along(ode, path))
    return abs(w1 - expected) / abs(w0)


def loop_transfer_matrix(ode, loop, tol=DEFAULT_TOL):
    """Matrix mapping (w, w') at the loop start to their values after one
    traversal: the two unit initial conditions carried in one pass."""
    tol = check_tolerance(tol)
    (w1, dw1), (w2, dw2) = transport(ode.cleared(), loop.vertices,
                                     [(1.0, 0.0), (0.0, 1.0)], tol)
    return ConnectionMatrix(((w1, w2), (dw1, dw2)))


# ---------------------------------------------------------------------------
# Connection matrices between Frobenius bases of the general Heun equation
# ---------------------------------------------------------------------------


def _default_path(ode, frm, to):
    """Anchor point in the source disk -> offset midpoint -> matching point
    in the target disk.

    The midpoint of the segment between the centers, offset perpendicular
    by 10% of the center distance, is also the matching point when it is
    comfortably inside the target convergence disk. It is not whenever the
    target radius is set by a third singular point (e.g. 0 -> f with
    f > 2); the matching point is then halfway into the target disk with a
    small perpendicular offset on the same side. From a point to itself
    the path is a chord of its disk.
    """
    r_frm = convergence_radius(ode, frm)
    if frm == to:
        return ComplexPath((frm + 0.4 * r_frm * cmath.exp(0.4j),
                            frm + 0.4 * r_frm * cmath.exp(-0.4j)))
    r_to = convergence_radius(ode, to)
    d = to - frm
    u = d / abs(d)
    perp = 1j * u
    z_a = frm + min(0.35 * r_frm, 0.4 * abs(d)) * u + 0.05 * r_frm * perp
    mid = (frm + to) / 2.0 + 0.1 * abs(d) * perp
    if abs(mid - to) <= 0.9 * r_to:
        return ComplexPath((z_a, mid))
    return ComplexPath((z_a, mid, to - 0.5 * r_to * u + 0.1 * r_to * perp))


def connection_matrix(params, frm, to, path=None, tol=DEFAULT_TOL):
    """Connection matrix between Frobenius bases at two of the points 0, 1, f.

    Both branch series at `frm` are evaluated at an anchor point inside the
    source disk, carried together along `path` (default: _default_path)
    and matched against the two branch series at `to` at the path's last
    vertex. Returns C with (u1, u2)^T = C (v1, v2)^T near the matching
    region. `frm` and `to` are centers as heun_center reads them.
    Raises LogarithmicCase for resonant exponents and IllConditioned when
    the target basis is numerically degenerate at the matching point.
    """
    tol = check_tolerance(tol)
    _, frm_c = heun_center(params, frm)
    _, to_c = heun_center(params, to)
    ode = general_heun(params)
    if path is None:
        path = _default_path(ode, frm_c, to_c)
    elif not isinstance(path, ComplexPath):
        path = ComplexPath(tuple(path))
    z_a, z_m = path.vertices[0], path.vertices[-1]

    # target basis at the matching point
    v = []
    for branch in ("first", "second"):
        val, _ = heun_value(params, to_c, branch, z_m, tail_tol=1e-13)
        v.append(val)
    M = ConnectionMatrix(((v[0].w, v[1].w), (v[0].dw, v[1].dw)))
    cond = M.condition_number
    if cond > 1e8:
        raise IllConditioned(f"target basis condition number {cond:.3e}")

    starts = []
    for branch in ("first", "second"):
        val, _ = heun_value(params, frm_c, branch, z_a, tail_tol=1e-13)
        starts.append((val.w, val.dw))
    ends = transport(ode.cleared(), path.vertices, starts, tol)
    # Cramer's rule: row j of C solves M x = (w, dw) of start j at z_m
    (m11, m12), (m21, m22) = M.entries
    det = M.determinant
    C = ConnectionMatrix(tuple(((w * m22 - m12 * dw) / det,
                                (m11 * dw - m21 * w) / det)
                               for w, dw in ends))
    if abs(C.determinant) < 1e-12:
        raise DegenerateSystem("connection matrix is singular")
    return C
