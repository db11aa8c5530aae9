"""Second-order linear ODEs continued along complex paths.

Rational coefficients (``integrate_path``, ``loop_transfer_matrix``,
``connection_matrix``) are continued by Taylor re-expansion, after O. V.
Motygin, "On evaluation of the Heun functions", and ``mpmath.odefun``:

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
* terms are added until the tail rule of ``series.sum_until`` holds: the
  last two (more when the recurrence is deeper, so a run of zero
  coefficients cannot stop it early) are below ``tol`` relative to the
  state, with w' weighted by n/step. ``heun_value`` sums Frobenius series
  by the same rule;
* all solutions carried along a path share the shifted polynomials and the
  recurrence weights, so a fundamental pair walks the path in one pass.

Caps on steps per path and terms per step raise StepUnderflow instead of
looping on inputs that cannot converge. Tolerances must be finite numbers
in (0, 1); values below 100 machine epsilons are raised to that floor.

Callable coefficients (``integrate_callable``; trigonometric ones have no
polynomial form) take the same steps, with Taylor coefficients from a
discrete Fourier transform of samples on a circle about each center, as
``mpmath.odefun`` feeds its stepper. ``wronskian_abel_check`` integrates p
in closed form from its partial fractions. No run-time path loads scipy.

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

from .errors import (
    DegenerateSystem,
    IllConditioned,
    InvalidTolerance,
    NonFiniteInput,
    SingularityTooClose,
    StepUnderflow,
)
from .heun import general_heun, heun_center, heun_value
from .poly import TAU_POLE, taylor_shift
from .series import convergence_radius, recurrence_weights, sum_until

CLEARANCE_FACTOR = 1e-3
DEFAULT_TOL = 1e-10
MIN_TOL = 100.0 * sys.float_info.epsilon
STEP_FRACTION = 0.5  # step / distance to the nearest finite singular point
MAX_STEPS = 10_000  # Taylor steps per path
MAX_TERMS = 400  # series terms per Taylor step
SAMPLES = 64  # samples per callable coefficient and center
SAMPLE_RADIUS = 0.6  # sample radius / distance to the nearest listed point
SAMPLE_RADIUS_CAP = 1.0  # sample radius when no listed point is nearer
MAX_SAMPLED_TERMS = 24  # Taylor coefficients kept per callable coefficient


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

    def __matmul__(self, other):
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return ConnectionMatrix(((a * e + b * g, a * f + b * h),
                                 (c * e + d * g, c * f + d * h)))


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


# ---------------------------------------------------------------------------
# Taylor re-expansion
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
    # each column scaled to max(1, |w|, |w'|) = 1, so one tail test fits all
    scales = [max(1.0, abs(w), abs(dw)) for w, dw in cols]
    h = [[w / s, dw / s] for (w, dw), s in zip(cols, scales)]
    if not sum_until(recurrence_weights(a, b, c), 0, 0j, h, abs(dz), tol,
                     MAX_TERMS):
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


def _distance(z, points):
    return min((abs(z - s) for s in points), default=math.inf)


def _transport(expand, path, cols, tol):
    """Carry (w, w') columns from the first path vertex to the last.

    expand(z) gives the ascending coefficients a, b, c of A w'' + B w' +
    C w = 0 about z, the largest step there and the tries that took, which
    count toward MAX_STEPS. Returns the columns at the last vertex.
    Clearance is the caller's check.
    """
    z = path.vertices[0]
    cols = [(complex(w), complex(dw)) for w, dw in cols]
    steps = 0
    for zb in path.vertices[1:]:
        while z != zb:
            a, b, c, reach, tries = expand(z)
            steps += tries
            if steps > MAX_STEPS:
                raise StepUnderflow(f"more than {MAX_STEPS} Taylor steps; "
                                    f"stopped at z = {z}")
            reach = min(reach, 2.0 * _coefficient_scale(a, b, c))
            d = zb - z
            z_next = zb if abs(d) <= reach else z + d * (reach / abs(d))
            cols = _taylor_step(a, b, c, z_next - z, cols, tol)
            z = z_next
    return cols


def _cleared_expansion(ode):
    """expand(z) for _transport: the cached cleared A, B, C shifted to z,
    and STEP_FRACTION of the distance to the nearest finite singular point."""
    A, B, C, sing = ode.cleared()

    def expand(z):
        a, b, c = (taylor_shift(P.coeffs, z) for P in (A, B, C))
        return a, b, c, STEP_FRACTION * _distance(z, sing), 1

    return expand


def _sampled_expansion(pfun, qfun, points, tol):
    """expand(z) for _transport from SAMPLES values of p and q on the
    circle |t - z| = rho, with rho = SAMPLE_RADIUS times the distance to
    the nearest listed singular point, at most SAMPLE_RADIUS_CAP.

    Bin k of the discrete Fourier transform is a Taylor coefficient times
    rho**k, up to aliasing of order (rho / R)**SAMPLES for a convergence
    radius R; a singular point inside the circle puts its negative powers
    into the top bins. On the step disk |t - z| <= rho/2 bin k weighs
    2**-min(k, SAMPLES - k). The head kept is the shortest, of at most
    MAX_SAMPLED_TERMS, whose weighted tail is at most tol * max(1, |bin 0|);
    when p or q has none, rho is halved and the try counts as a step.
    """
    import numpy as np
    k = np.arange(SAMPLES)
    roots = np.exp(2j * math.pi * k / SAMPLES)
    weight = 0.5 ** np.minimum(k, SAMPLES - k)

    def head(f, nodes, rho):
        bins = np.fft.fft([f(t) for t in nodes]) / SAMPLES
        tail = np.cumsum((np.abs(bins) * weight)[::-1])[::-1]
        fits = np.flatnonzero(tail[:MAX_SAMPLED_TERMS + 1]
                              <= tol * max(1.0, abs(bins[0])))
        return (bins[:fits[0]] / rho ** k[:fits[0]]).tolist() \
            if fits.size else None

    def expand(z):
        rho = min(SAMPLE_RADIUS * _distance(z, points), SAMPLE_RADIUS_CAP)
        for tries in range(1, MAX_STEPS + 1):
            if z + 0.5 * rho == z:
                break
            nodes = (z + rho * roots).tolist()
            b = head(pfun, nodes, rho)
            c = None if b is None else head(qfun, nodes, rho)
            if c is not None:
                return [1.0 + 0j], b, c, 0.5 * rho, tries
            rho *= 0.5
        raise StepUnderflow(f"no sample radius about z = {z} gives "
                            f"coefficients to tol {tol:.3e}")

    return expand


def _carry(expand, points, init, path, tol):
    """One solution from init at the first path vertex to the last."""
    _check_start(init, path)
    check_clearance(points, path)
    [(w, dw)] = _transport(expand, path, [(init.w, init.dw)], tol)
    return SolutionState(path.vertices[-1], w, dw)


def integrate_path(ode, init, path, tol=DEFAULT_TOL):
    """Continue a solution of a rational-coefficient LinearODE along a
    polyline.

    The initial state must sit on the first vertex; the result is the state
    at the last vertex. Raises InvalidTolerance / SingularityTooClose /
    StepUnderflow.
    """
    tol = check_tolerance(tol)
    return _carry(_cleared_expansion(ode), ode.cleared()[3], init, path, tol)


def integrate_callable(pfun, qfun, init, path, tol=DEFAULT_TOL,
                       singular_points=()):
    """integrate_path for w'' + p(z) w' + q(z) w = 0 with callable p, q.

    p and q must accept complex arguments and be holomorphic near the
    path, apart from the listed singular points: their Taylor coefficients
    come from samples on a circle about each center (_sampled_expansion).
    Raises StepUnderflow when no sample radius meets tol.
    """
    tol = check_tolerance(tol)
    points = tuple(complex(s) for s in singular_points)
    return _carry(_sampled_expansion(pfun, qfun, points, tol), points, init,
                  path, tol)


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
    check_clearance(ode.cleared()[3], loop)
    (w1, dw1), (w2, dw2) = _transport(_cleared_expansion(ode), loop,
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
    region. `frm` and `to` are locations or the labels of heun_center.
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
    check_clearance(ode.cleared()[3], path)

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
    ends = _transport(_cleared_expansion(ode), path, starts, tol)
    # Cramer's rule: row j of C solves M x = (w, dw) of start j at z_m
    (m11, m12), (m21, m22) = M.entries
    det = M.determinant
    C = ConnectionMatrix(tuple(((w * m22 - m12 * dw) / det,
                                (m11 * dw - m21 * w) / det)
                               for w, dw in ends))
    if abs(C.determinant) < 1e-12:
        raise DegenerateSystem("connection matrix is singular")
    return C
