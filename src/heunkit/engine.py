"""Second-order linear ODEs continued along complex paths.

Rational coefficients (``integrate_path``, ``trace_path``,
``loop_transfer_matrix``, ``connection_matrix``) are continued by Taylor
re-expansion, after O. V. Motygin, "On evaluation of the Heun functions",
and ``mpmath.odefun``:

* the equation is cleared once to A w'' + B w' + C w = 0 and cached with
  its finite singular points (``LinearODE.cleared``);
* at each center z the polynomials are shifted to z and the series of every
  carried solution comes from the recurrence in ``series``, whose pivot at
  an ordinary point is A(z) n(n-1);
* a step goes to the next path vertex, but no further than STEP_FRACTION of
  the distance to the nearest finite singular point, so the series ratio is
  at most 1/2, and no further than twice the scale on which the equation's
  coefficients change a solution (this bounds steps when no singular point
  is near, as for the harmonic oscillator);
* terms are added until the last two (more when the recurrence is deeper,
  so a run of zero coefficients cannot stop it early) are below ``tol``
  relative to the state, with w' weighted by n/step;
* all solutions carried along a path share the shifted polynomials and the
  recurrence weights, so a fundamental pair walks the path in one pass.

Caps on steps per path and terms per step raise StepUnderflow instead of
looping on inputs that cannot converge. Tolerances must be finite numbers
in (0, 1); values below 100 machine epsilons are raised to that floor.

Callable coefficients (``integrate_callable``; trigonometric ones have no
polynomial form) use the 8(7) Dormand-Prince pair (scipy's DOP853) on the
real-ified 4-vector (w, w'), with the segment parametrization
z(s) = z0 + s dz keeping the complex geometry in the right-hand side.

scipy.integrate is imported on first use, not with the package: importing
it costs several times more than a typical command does. Three callers
load it: ``integrate_callable`` (DOP853), ``wronskian_abel_check`` (the
quadrature of p along the path) and ``mathieu.orthogonality_matrix`` (the
Gram matrix).

Clearance from singular points scales with the local singularity spacing,
so tight geometries (points at distance ~1) and wide ones are treated
uniformly. Connection matrices express the Frobenius basis at one singular
point in the basis at another by carrying both basis solutions to a
matching point inside the target convergence disk and solving the 2x2
system there.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSystem,
    IllConditioned,
    InvalidTolerance,
    NonFiniteInput,
    SingularityTooClose,
    StepUnderflow,
)
from .heun import general_heun, heun_center, heun_radius, heun_value
from .poly import taylor_shift
from .series import recurrence_terms, recurrence_weights

CLEARANCE_FACTOR = 1e-3
DEFAULT_TOL = 1e-10
MIN_TOL = 100.0 * sys.float_info.epsilon
STEP_FRACTION = 0.5  # step / distance to the nearest finite singular point
MAX_STEPS = 10_000  # Taylor steps per path
MAX_TERMS = 400  # series terms per Taylor step


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call. A module-level
    function, so that a tracer can wrap it by name (perfbench/tracer.py)."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call. A module-level
    function, so that a tracer can wrap it by name (perfbench/tracer.py);
    mathieu has its own, so the two callers are told apart."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


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
        return np.array(self.entries, dtype=complex)

    @property
    def condition_number(self):
        return float(np.linalg.cond(self.as_array()))

    def __matmul__(self, other):
        prod = self.as_array() @ other.as_array()
        return ConnectionMatrix(tuple(tuple(row) for row in prod))


def point_segment_distance(p, a, b):
    """Distance from point p to the segment [a, b]."""
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _local_spacing(sing, idx):
    others = [s for j, s in enumerate(sing) if j != idx]
    if not others:
        return max(1.0, abs(sing[idx]))
    return min(abs(sing[idx] - s) for s in others)


def check_clearance(singular_points, path):
    """Raise SingularityTooClose when the polyline passes within
    CLEARANCE_FACTOR * (local singularity spacing) of any singular point."""
    sing = list(singular_points)
    for i, s in enumerate(sing):
        clearance = CLEARANCE_FACTOR * _local_spacing(sing, i)
        for a, b in path.segments:
            d = point_segment_distance(s, a, b)
            if d < clearance:
                raise SingularityTooClose(
                    f"path within {d:.3e} of singular point {s} "
                    f"(clearance {clearance:.3e})")


def _check_start(init, path):
    z = init.z
    if abs(z - path.vertices[0]) > 1e-9 * max(1.0, abs(z)):
        raise ValueError("initial state is not at the first path vertex")


def _integrate_segments(pfun, qfun, init, path, tol):
    _check_start(init, path)
    y = np.array([init.w.real, init.w.imag, init.dw.real, init.dw.imag])
    for za, zb in path.segments:
        dz = zb - za
        if dz == 0:
            continue

        def rhs(s, v, za=za, dz=dz):
            zz = za + s * dz
            w = complex(v[0], v[1])
            dw = complex(v[2], v[3])
            ddw = -(pfun(zz) * dw + qfun(zz) * w)
            r0 = dw * dz
            r1 = ddw * dz
            return (r0.real, r0.imag, r1.real, r1.imag)

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853",
                        rtol=tol, atol=tol, dense_output=False)
        if not sol.success:
            raise StepUnderflow(f"integrator failed on segment {za} -> {zb}: "
                                f"{sol.message}")
        y = sol.y[:, -1]
    zf = path.vertices[-1]
    return SolutionState(zf, complex(y[0], y[1]), complex(y[2], y[3]))


def integrate_callable(pfun, qfun, init, path, tol=DEFAULT_TOL,
                       singular_points=()):
    """Integrate w'' + p(z) w' + q(z) w = 0 with callable coefficients."""
    tol = check_tolerance(tol)
    if singular_points:
        check_clearance(singular_points, path)
    return _integrate_segments(pfun, qfun, init, path, tol)


# ---------------------------------------------------------------------------
# Taylor re-expansion for rational coefficients
# ---------------------------------------------------------------------------


def _coefficient_scale(a, b, c):
    """Distance over which the terms b_k s^k w' and c_k s^k w grow to the
    size of a_0 w'': the step bound where no singular point is near."""
    a0 = abs(a[0])
    scale = math.inf
    for k, bk in enumerate(b):
        if bk != 0:
            scale = min(scale, (a0 / abs(bk)) ** (1.0 / (k + 1)))
    for k, ck in enumerate(c):
        if ck != 0:
            scale = min(scale, (a0 / abs(ck)) ** (1.0 / (k + 2)))
    return scale


def _taylor_step(a, b, c, dz, cols, tol):
    """Carry the (w, w') columns from the center of the shifted polynomials
    a, b, c to center + dz with one series each."""
    weights = recurrence_weights(a, b, c)
    window = max(2, len(weights) - 1)
    r = abs(dz)
    # each column scaled to max(1, |w|, |w'|) = 1, so one tail test fits all
    scales = [max(1.0, abs(w), abs(dw)) for w, dw in cols]
    h = [[w / s, dw / s] for (w, dw), s in zip(cols, scales)]
    errs = []
    rn = r
    for n in recurrence_terms(weights, 0, 0j, h):
        rn *= r
        errs.append(rn * max(1.0, n / r) * max([abs(hc[n]) for hc in h]))
        if n > window and sum(errs[-window:]) <= tol:
            break
        if n >= MAX_TERMS:
            raise StepUnderflow(f"Taylor series did not reach tol {tol:.3e} "
                                f"in {MAX_TERMS} terms (step {dz:.3e})")
    out = []
    for hc, s in zip(h, scales):
        w = dw = 0j
        for k in range(len(hc) - 1, 0, -1):
            w = w * dz + hc[k]
            dw = dw * dz + k * hc[k]
        out.append(((w * dz + hc[0]) * s, dw * s))
    return out


def _transport(ode, path, cols, tol, keep=False):
    """Carry (w, w') columns from the first path vertex to the last.

    Returns the columns at the last vertex, or with keep=True a list of the
    columns at every vertex. Clearance is the caller's check.
    """
    A, B, C, sing = ode.cleared()
    z = path.vertices[0]
    cols = [(complex(w), complex(dw)) for w, dw in cols]
    visited = [cols]
    steps = 0
    for zb in path.vertices[1:]:
        while z != zb:
            steps += 1
            if steps > MAX_STEPS:
                raise StepUnderflow(f"more than {MAX_STEPS} Taylor steps; "
                                    f"stopped at z = {z}")
            a, b, c = (taylor_shift(P.coeffs, z) for P in (A, B, C))
            reach = min(STEP_FRACTION * min((abs(z - s) for s in sing),
                                            default=math.inf),
                        2.0 * _coefficient_scale(a, b, c))
            d = zb - z
            z_next = zb if abs(d) <= reach else z + d * (reach / abs(d))
            cols = _taylor_step(a, b, c, z_next - z, cols, tol)
            z = z_next
        visited.append(cols)
    return visited if keep else cols


def integrate_path(ode, init, path, tol=DEFAULT_TOL):
    """Continue a solution of a rational-coefficient LinearODE along a
    polyline.

    The initial state must sit on the first vertex; the result is the state
    at the last vertex. Raises InvalidTolerance / SingularityTooClose /
    StepUnderflow.
    """
    tol = check_tolerance(tol)
    _check_start(init, path)
    check_clearance(ode.cleared()[3], path)
    [(w, dw)] = _transport(ode, path, [(init.w, init.dw)], tol)
    return SolutionState(path.vertices[-1], w, dw)


def trace_path(ode, init, path, tol=DEFAULT_TOL, points_per_segment=16):
    """Like integrate_path but returns the states at points_per_segment
    equally spaced points of every segment (after the initial state)."""
    tol = check_tolerance(tol)
    _check_start(init, path)
    check_clearance(ode.cleared()[3], path)
    verts = [path.vertices[0]]
    for za, zb in path.segments:
        if zb != za:
            verts += [za + (k / points_per_segment) * (zb - za)
                      for k in range(1, points_per_segment)] + [zb]
    if len(verts) < 2:
        return [init]
    visited = _transport(ode, ComplexPath(tuple(verts)), [(init.w, init.dw)],
                         tol, keep=True)
    return [init] + [SolutionState(z, w, dw)
                     for z, [(w, dw)] in zip(verts[1:], visited[1:])]


def trace_to_csv(states):
    """Render integration states as CSV with columns
    z_re, z_im, w_re, w_im, dw_re, dw_im."""
    lines = ["z_re,z_im,w_re,w_im,dw_re,dw_im"]
    for st in states:
        lines.append(",".join(f"{v:.17g}" for v in
                              (st.z.real, st.z.imag, st.w.real, st.w.imag,
                               st.dw.real, st.dw.imag)))
    return "\n".join(lines) + "\n"


def complex_quad(f, a, b, epsabs=1e-13, epsrel=1e-13):
    re = quad(lambda t: f(t).real, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)[0]
    im = quad(lambda t: f(t).imag, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)[0]
    return complex(re, im)


def integrate_p_along(ode, path):
    """Adaptive quadrature of p(z) dz along a polyline."""
    total = 0j
    for za, zb in path.segments:
        dz = zb - za
        if dz == 0:
            continue
        total += complex_quad(lambda s: ode.p(za + s * dz) * dz, 0.0, 1.0)
    return total


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
    check_clearance(ode.cleared()[3], loop)
    (w1, dw1), (w2, dw2) = _transport(ode, loop, [(1.0, 0.0), (0.0, 1.0)], tol)
    return ConnectionMatrix(((w1, w2), (dw1, dw2)))


# ---------------------------------------------------------------------------
# Connection matrices between Frobenius bases of the general Heun equation
# ---------------------------------------------------------------------------


def _match_point(params, frm, to):
    """Matching point inside the target disk.

    Preferred location: midpoint of the segment between the centers, offset
    perpendicular by 10% of the center distance. When that point is not
    comfortably inside the target convergence disk (it is not whenever the
    target radius is set by a third singular point, e.g. 0 -> f with f > 2),
    fall back to a point halfway into the target disk with a small
    perpendicular offset on the same side.
    """
    d = to - frm
    u = d / abs(d)
    perp = 1j * u
    z_m = (frm + to) / 2.0 + 0.1 * abs(d) * perp
    r_to = heun_radius(params, to)
    if abs(z_m - to) <= 0.9 * r_to:
        return z_m
    return to - 0.5 * r_to * u + 0.1 * r_to * perp


def _anchor_point(params, frm, to):
    r = heun_radius(params, frm)
    u = (to - frm) / abs(to - frm)
    return frm + min(0.35 * r, 0.4 * abs(to - frm)) * u + 0.05 * r * (1j * u)


def connection_matrix(params, frm, to, path=None, tol=DEFAULT_TOL):
    """Connection matrix between Frobenius bases at two of the points 0, 1, f.

    Both branch series at `frm` are evaluated at an anchor point inside the
    source disk, carried together along `path` (default: anchor -> offset
    midpoint -> matching point) and matched against the two branch series
    at `to`. Returns C with (u1, u2)^T = C (v1, v2)^T near the matching
    region. `frm` and `to` are locations or the labels of heun_center.
    Raises LogarithmicCase for resonant exponents and IllConditioned when
    the target basis is numerically degenerate at the matching point.
    """
    tol = check_tolerance(tol)
    _, frm_c = heun_center(params, frm)
    _, to_c = heun_center(params, to)
    ode = general_heun(params)
    same = abs(frm_c - to_c) <= 1e-12 * max(1.0, abs(frm_c))

    if same:
        r = heun_radius(params, frm_c)
        z_a = frm_c + 0.4 * r * cmath.exp(0.4j)
        z_m = frm_c + 0.4 * r * cmath.exp(-0.4j)
        default_path = ComplexPath((z_a, z_m))
    else:
        z_a = _anchor_point(params, frm_c, to_c)
        z_m = _match_point(params, frm_c, to_c)
        mid = (frm_c + to_c) / 2.0 + 0.1 * abs(to_c - frm_c) * 1j * \
            (to_c - frm_c) / abs(to_c - frm_c)
        default_path = ComplexPath((z_a, mid, z_m)) if abs(mid - z_m) > 1e-12 \
            else ComplexPath((z_a, z_m))
    if path is None:
        path = default_path
    else:
        path = path if isinstance(path, ComplexPath) else ComplexPath(tuple(path))
        z_a = path.vertices[0]
        z_m = path.vertices[-1]

    check_clearance(ode.cleared()[3], path)

    # target basis at the matching point
    v = []
    for branch in ("first", "second"):
        val, _ = heun_value(params, to_c, branch, z_m, tail_tol=1e-13)
        v.append(val)
    M = np.array([[v[0].w, v[1].w], [v[0].dw, v[1].dw]], dtype=complex)
    cond = float(np.linalg.cond(M))
    if cond > 1e8:
        raise IllConditioned(f"target basis condition number {cond:.3e}")

    starts = []
    for branch in ("first", "second"):
        val, _ = heun_value(params, frm_c, branch, z_a, tail_tol=1e-13)
        starts.append((val.w, val.dw))
    ends = _transport(ode, path, starts, tol)
    coeff = np.linalg.solve(M, np.array(ends, dtype=complex).T)
    C = ConnectionMatrix(tuple((complex(coeff[0, j]), complex(coeff[1, j]))
                               for j in range(2)))
    if abs(C.determinant) < 1e-12:
        raise DegenerateSystem("connection matrix is singular")
    return C
