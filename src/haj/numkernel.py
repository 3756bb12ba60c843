"""Arbitrary-precision numeric kernel.

Everything downstream funnels its numerics through this module: a precision
context with a fixed tolerance ladder, complex serialization that round-trips,
circle loops, a branch-stable AGM, loop integration by the periodic trapezoid
rule, roots of polynomials, and the crossings of a rational function along a
circle with the logarithm's branch cut (the negative real axis). No cut
crossing is found by sampling: along a circle they are the roots of one
polynomial built from the function's exact coefficients, and the invariant
evaluators trace affine maps, whose lattice-cut crossings they compute in
closed form.

Polynomial roots are seeded in double precision by Aberth's iteration in
Python ``complex`` arithmetic, started on the circles of the coefficients'
Newton polygon, then polished once at the working precision by mpmath's
Durand-Kerner under its own convergence gate: from such seeds the polish
needs a few quadratically convergent sweeps instead of the dozens a generic
start costs. Coefficients beyond double range, and seeds that do not settle
(a multiple root), fall back to mpmath's default start.

Loop integration samples integrands at equispaced nodes on the circle and
returns their Fourier coefficients from one radix-2 FFT in mpmath. On a
circle the trapezoid rule converges exponentially, at a rate set by the
nearest singularity, so the node count follows from that distance (the
caller knows it from exact roots) and a loop too close to one is refused
rather than run. No adaptive quadrature remains in the package.

The working substrate is mpmath. All public operations run under a local
working precision of ``digits + GUARD_DIGITS`` decimal digits; callers never
touch the global mpmath context directly. Concurrency note: mpmath precision
is process-global state, so parallel callers must isolate by process (the CLI
does exactly that).
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

GUARD_DIGITS = 20

__all__ = [
    "GUARD_DIGITS",
    "NumKernelError",
    "NonConvergence",
    "QuadratureStall",
    "TangencySuspected",
    "PrecisionCtx",
    "BigComplex",
    "complex_to_json",
    "complex_from_json",
    "CircleAround",
    "Crossing",
    "agm",
    "integrate_path",
    "trapezoid_nodes",
    "poly_roots",
    "detect_crossings",
]


class NumKernelError(Exception):
    """Base class for kernel failures."""


class NonConvergence(NumKernelError):
    """An iteration exceeded its certified step budget."""


class QuadratureStall(NumKernelError):
    """The trapezoid rule would need more nodes than its budget allows.

    A zero or pole close to the loop slows the rule's exponential
    convergence; the remedy is a loop farther from it.
    """


class TangencySuspected(NumKernelError):
    """A trace appears to touch a cut without transversally crossing it."""


# mpmath's mpc is the arbitrary-precision complex type used throughout.
BigComplex = mp.mpc


@dataclasses.dataclass(frozen=True)
class PrecisionCtx:
    """Requested precision in decimal digits plus the derived tolerance ladder.

    ``digits`` is the reportable precision; internal work carries
    ``GUARD_DIGITS`` extra digits. The ladder:

    * ``tol``            = 10^(-digits*4/5)   - geometric/termination tolerance
    * ``relation_tol``   = 10^(-digits*3/5)   - integer-relation acceptance
    * ``agreement_tol``  = 10^(-digits/2)     - dual-method agreement

    ``cancelled`` is an optional zero-argument callable polled by long-running
    reductions; returning True aborts the computation cooperatively.
    """

    digits: int = 128
    cancelled: Optional[Callable] = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.digits < 32:
            raise ValueError("digits must be >= 32")

    def check_cancel(self) -> None:
        if self.cancelled is not None and self.cancelled():
            raise InterruptedError("computation cancelled by caller token")

    def work(self):
        """Context manager setting the working precision (with guard digits)."""
        return mp.workdps(self.digits + GUARD_DIGITS)

    def _pow10(self, exponent_num: int, exponent_den: int) -> mp.mpf:
        with self.work():
            return mp.power(mp.mpf(10), -mp.mpf(self.digits * exponent_num) / exponent_den)

    @property
    def tol(self) -> mp.mpf:
        return self._pow10(4, 5)

    @property
    def relation_tol(self) -> mp.mpf:
        return self._pow10(3, 5)

    @property
    def agreement_tol(self) -> mp.mpf:
        return self._pow10(1, 2)

    def doubled(self) -> "PrecisionCtx":
        """A context at twice the digits (for soundness amplification)."""
        return PrecisionCtx(self.digits * 2, cancelled=self.cancelled)


def _to_mpf(q) -> mp.mpf:
    """An exact rational (Fraction or int) as the nearest mpf at the
    working precision: one rounding, to nearest, however long p and q are."""
    return mp.mp.make_mpf(from_rational(q.numerator, q.denominator, mp.mp.prec, round_nearest))


def complex_to_json(z, ctx: PrecisionCtx) -> dict:
    """Serialize a complex value to decimal strings at ctx.digits digits.

    Round-trips through :func:`complex_from_json` to within 1 ulp at the
    reportable precision (the guard digits absorb the decimal conversion).
    """
    with mp.workdps(ctx.digits):
        z = mp.mpc(z)
        return {"re": mp.nstr(z.real, ctx.digits), "im": mp.nstr(z.imag, ctx.digits)}


def complex_from_json(obj: dict, ctx: PrecisionCtx) -> mp.mpc:
    with ctx.work():
        return mp.mpc(mp.mpf(obj["re"]), mp.mpf(obj["im"]))


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CircleAround:
    """Circle z(t) = center + radius * e^(2*pi*i*t), t in [0, 1].

    ``orientation`` multiplies integrals: +1 runs counterclockwise as
    parametrized, -1 reverses.
    """

    center: object
    radius: object
    orientation: int = 1

    def __post_init__(self) -> None:
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def point(self, t) -> mp.mpc:
        return mp.mpc(self.center) + mp.mpf(self.radius) * mp.expjpi(2 * mp.mpf(t))

    def tangent(self, t) -> mp.mpc:
        """dz/dt at parameter t."""
        return mp.mpf(self.radius) * 2j * mp.pi * mp.expjpi(2 * mp.mpf(t))


# ---------------------------------------------------------------------------
# AGM
# ---------------------------------------------------------------------------


def agm(a, b, ctx: PrecisionCtx) -> mp.mpc:
    """Arithmetic-geometric mean with the branch-stable square root rule.

    At each step the geometric mean's square-root sign is chosen so that the
    new geometric mean stays closest to the new arithmetic mean (the "good"
    branch; ties broken toward nonnegative real part). Terminates when
    |a_n - b_n| <= tol * max(1, |a_n|); raises NonConvergence after
    8*digits iterations.
    """
    with ctx.work():
        a = mp.mpc(a)
        b = mp.mpc(b)
        if a == 0 or b == 0:
            return mp.mpc(0)
        tol = ctx.tol
        limit = 8 * ctx.digits
        for _ in range(limit):
            if abs(a - b) <= tol * max(mp.mpf(1), abs(a)):
                return (a + b) / 2
            an = (a + b) / 2
            g = mp.sqrt(a * b)
            d_keep = abs(an - g)
            d_flip = abs(an + g)
            if d_keep > d_flip or (
                d_keep == d_flip and (g.real < 0 or (g.real == 0 and g.imag < 0))
            ):
                g = -g
            a, b = an, g
        raise NonConvergence(f"agm did not converge within {limit} iterations")


# ---------------------------------------------------------------------------
# Loop integration
# ---------------------------------------------------------------------------


# more nodes than this is refused: the cost grows about linearly in N, and
# N = 4096 took about 2 s at 32 digits on a 2-vCPU VM (mpmath's pure-Python
# backend)
_MAX_NODES = 4096


def trapezoid_nodes(ratio, digits: int) -> int:
    """Node count for :func:`integrate_path` to reach about 10^-digits.

    ``ratio`` > 1 bounds the integrands' analyticity: every one is
    analytic on the annulus 1/ratio < |z - center| / radius < ratio. The
    coefficients near the Nyquist frequency then alias with an error of
    about ratio^(-N/2) (Trefethen and Weideman, SIAM Review 56, 2014), so
    N is the smallest power of 2, at least 8, with
    ratio^(-N/2) <= e^-10 * 10^-digits. Raises QuadratureStall when that
    needs more than 4096 nodes.
    """
    with mp.workdps(15):
        ratio = mp.mpf(ratio)
        if not ratio > 1:
            raise ValueError("ratio must exceed 1")
        need = 2 * (digits * mp.ln(10) + 10) / mp.ln(ratio)
    if need > _MAX_NODES:
        raise QuadratureStall(
            f"the trapezoid rule needs {int(mp.ceil(need))} nodes, above the budget "
            f"of {_MAX_NODES}: a zero or pole lies within a factor "
            f"{mp.nstr(ratio, 8)} of the loop's radius"
        )
    nodes = 8
    while nodes < need:
        nodes *= 2
    return nodes


def _dft(values: list, roots: list) -> list:
    # radix-2 sum_j values[j] * roots[j*k], roots[j] = e^(-2*pi*i*j/N)
    if len(values) == 1:
        return values
    even = _dft(values[0::2], roots[0::2])
    odd = [w * x for w, x in zip(roots, _dft(values[1::2], roots[0::2]))]
    return [x + y for x, y in zip(even, odd)] + [x - y for x, y in zip(even, odd)]


def integrate_path(
    integrands: Sequence[Callable], loop: CircleAround, nodes: int, ctx: PrecisionCtx
) -> list:
    """Fourier coefficients of F(z(t)) * z'(t) along the loop, one list per F.

    The periodic trapezoid rule on N = ``nodes`` equispaced parameters
    t_j = j/N: each integrand F (a function of z) is sampled as
    c_j = F(z_j) * z'(t_j), and the normalized DFT
    c^_k = (1/N) * sum_j c_j * e^(-2*pi*i*j*k/N), k = 0..N-1, comes from
    one radix-2 FFT; index k >= N/2 stands for the frequency k - N.
    c^_0 is the loop integral of F dz with t running as in
    ``CircleAround.point`` (the orientation sign is ignored). When every
    F is analytic on an annulus about the circle, the error decays
    exponentially in N (see :func:`trapezoid_nodes`). ``nodes`` must be
    a power of 2.
    """
    if nodes < 2 or nodes & (nodes - 1):
        raise ValueError("nodes must be a power of 2")
    with ctx.work():
        center, radius = mp.mpc(loop.center), mp.mpf(loop.radius)
        circle = mp.unitroots(nodes)
        # z'(t) = 2*pi*i * radius * w on z = center + radius * w
        scale = 2j * mp.pi * radius / nodes
        roots = [mp.conj(w) for w in circle]
        out = []
        for integrand in integrands:
            samples = [integrand(center + radius * w) * (scale * w) for w in circle]
            out.append(_dft(samples, roots))
        return out


# ---------------------------------------------------------------------------
# Polynomial roots and cut crossings
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Crossing:
    """One transversal crossing of the negative real axis.

    ``param`` is the path parameter, taken from a simple polynomial root and
    so accurate to about the working precision; ``point`` is the trace value
    there and ``orientation`` the signed crossing direction.
    """

    param: object
    point: object
    orientation: int


def _horner(coeffs: Sequence, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + mp.mp.mpq(c.numerator, c.denominator)
    return acc


def _derivative(coeffs: Sequence) -> tuple:
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0,)


def _newton_step(p: list, z: complex) -> complex:
    # p(z) / p'(z) in double precision, p constant term first; outside the
    # unit disc through the reversed polynomial q(y) = y^n * p(1/y), y = 1/z,
    # as p / p' = 1 / (n*y - y^2 * q'(y) / q(y)), so that z^n never overflows
    if abs(z) <= 1:
        value = slope = 0j
        for c in reversed(p):
            slope = slope * z + value
            value = value * z + c
        return value / slope if value else 0j
    y = 1 / z
    value = slope = 0j
    for c in p:
        slope = slope * y + value
        value = value * y + c
    return 1 / ((len(p) - 1) * y - y * y * slope / value) if value else 0j


def _polygon_start(p: list) -> list:
    # Bini's start (Numer. Algorithms 13, 1996): the upper convex hull of the
    # points (k, log|p_k|) sorts the roots by modulus, and an edge from k = i
    # to k = j carries j - i of them near modulus (|p_i| / |p_j|)^(1/(j - i));
    # a root at zero (p_0 = 0) starts at zero
    hull: list = []
    for k, c in enumerate(p):
        if c:
            x, y = k, math.log(abs(c))
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])
            ):
                hull.pop()
            hull.append((x, y))
    n = len(p) - 1
    z = [0j] * hull[0][0]
    for (i, a), (j, b) in zip(hull, hull[1:]):
        radius = math.exp((a - b) / (j - i))
        z += [
            radius * cmath.exp(1j * (2 * math.pi * (k / (j - i) + i / n) + 0.4))
            for k in range(j - i)
        ]
    return z


def _aberth_seeds(coeffs: Sequence) -> Optional[list]:
    """Approximations to all roots of sum(coeffs[k] * w^k) in double precision.

    Aberth's simultaneous iteration (Math. Comp. 27, 1973) from points on
    circles whose radii come from the Newton polygon of the coefficients
    (:func:`_polygon_start`). Each sweep moves every root by
    N / (1 - N * sum_j 1/(z - z_j)), N the Newton step p/p', which converges
    cubically on simple roots. Returns the roots once no root moves by more
    than 10^-12 of its modulus in a sweep. Returns None when the roots have
    not settled after 20 + n sweeps (near a multiple root Aberth converges
    only linearly), or when a coefficient or an iterate leaves double range;
    the caller then starts from mpmath's default instead.
    """
    try:
        p = [complex(c) for c in coeffs]
        lead = p[-1]
        p = [c / lead for c in p]
        if not all(cmath.isfinite(c) for c in p):
            return None
        z = _polygon_start(p)
        for _ in range(20 + len(z)):
            moved = 0.0
            for i, zi in enumerate(z):
                newton = _newton_step(p, zi)
                pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                step = newton / (1 - newton * pull)
                z[i] = zi - step
                moved = max(moved, abs(step) / (abs(z[i]) or 1.0))
            if moved < 1e-12:
                return z if all(cmath.isfinite(x) for x in z) else None
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def poly_roots(coeffs: Sequence, ctx: PrecisionCtx) -> list:
    """All complex roots of sum(coeffs[k] * w^k), constant term first.

    The leading coefficient must be nonzero; int and Fraction coefficients
    are converted by :func:`_to_mpf`, to nearest, at the precision of the
    polish. The roots are seeded in
    double precision by :func:`_aberth_seeds` and polished by mpmath's
    Durand-Kerner at the working precision with 60 extra bits, under its
    own gate: every root's last correction below the working epsilon. From
    double seeds the polish converges quadratically on simple roots in a
    few sweeps, each O(n^2) divisions (on a 2-vCPU VM, degree 8 at 64
    digits: about 7 ms, against 30 ms from mpmath's default start). Without
    seeds it starts from that default. A double root converges linearly,
    about one step per bit, and only at doubled precision, which a single
    retry supplies. Raises TangencySuspected when the root finder does not
    converge even then. The roots come sorted by (|Im|, Re) read on a grid
    of tol, so their order does not depend on the start.
    """
    high_first = list(reversed(coeffs))
    steps = 50 + 4 * len(coeffs)
    seeds = _aberth_seeds(coeffs) if len(coeffs) > 1 else None
    with ctx.work():
        prec = mp.mp.prec
        start = None if seeds is None else [mp.mpc(z) for z in seeds]
        for extra, limit in ((60, steps), (prec + 60, steps + prec)):
            # mp.polyroots converts the coefficients itself only when the
            # leading one is 1, and otherwise divides them by it as they are
            with mp.extraprec(extra):
                converted = [
                    _to_mpf(c) if isinstance(c, (int, Fraction)) else mp.mpmathify(c)
                    for c in high_first
                ]
            try:
                roots = mp.polyroots(
                    converted, maxsteps=limit, extraprec=extra, roots_init=start
                )
            except mp.mp.NoConvergence:
                continue
            # mpmath sorts by (|Im|, Re), so roots tied there (a conjugate
            # pair, or -a + bi and a + bi) come out in an order set by
            # rounding noise; on a grid of tol the order is fixed by the roots
            tol = ctx.tol
            return sorted(
                roots,
                key=lambda w: (mp.nint(abs(w.imag) / tol), mp.nint(w.real / tol), -w.imag),
            )
    raise TangencySuspected(
        f"root finder did not converge on a degree-{len(coeffs) - 1} polynomial"
    )


def _shifted(coeffs: Sequence, center, radius) -> list:
    # coefficients of p(center + radius * w) in w, constant term first
    out: list = []
    for c in reversed(coeffs):
        out = [center * x + radius * y for x, y in zip(out + [0], [0] + out)]
        out[0] += mp.mp.mpq(c.numerator, c.denominator)
    return out


def _product(p: list, q: list) -> list:
    out = [mp.mpc(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _reflected(p: list) -> list:
    # p*(w) = w^deg(p) * conj(p(1/conj(w))), which equals w^deg(p) * conj(p(w)) on |w| = 1
    return [mp.conj(x) for x in reversed(p)]


def detect_crossings(num: Sequence, den: Sequence, loop: CircleAround, ctx: PrecisionCtx) -> list:
    """Crossings of f = num/den with the negative real axis along a circle.

    ``num`` and ``den`` are exact rational coefficient tuples, constant term
    first, with nonzero leading coefficients; the loop must keep clear of
    every zero and pole of f, and t runs as in ``CircleAround.point`` (the
    orientation sign is ignored).
    On the circle z = c + r*w, |w| = 1, put A(w) = num(z) and B(w) = den(z).
    Im f vanishes there exactly at the roots on |w| = 1 of

        P(w) = w^deg(num) * A * B* - w^deg(den) * A* * B,

    since P(w) = 2i * w^(deg num + deg den) * |B|^2 * Im f(z) on the circle.
    The crossings are the roots within sqrt(tol) of |w| = 1 where Re f < 0,
    each at t = arg(w) / 2pi, and a tangency of the trace with the real axis
    is a multiple root of P.

    Returns Crossing records sorted by parameter. The orientation is +1 when
    the trace crosses downward through the cut (imaginary part passing from
    positive to negative), so a positively oriented loop about a simple zero
    of f crosses exactly once with orientation +1.

    Raises TangencySuspected when f is real and negative all along the loop,
    when a crossing lies within sqrt(tol) of t = 0 or t = 1, when two
    crossings lie within sqrt(tol) of each other, or when the root finder
    does not converge.
    """
    with ctx.work():
        center, radius = mp.mpc(loop.center), mp.mpf(loop.radius)
        a, b = _shifted(num, center, radius), _shifted(den, center, radius)
        lhs = [0] * (len(a) - 1) + _product(a, _reflected(b))
        rhs = [0] * (len(b) - 1) + _product(_reflected(a), b)
        size = max(abs(x) for x in lhs + rhs)
        poly = [x - y for x, y in itertools.zip_longest(lhs, rhs, fillvalue=0)]
        # coefficients at rounding level are structural zeros: a zero of P at
        # w = 0 or at infinity lies off the circle and is dropped
        floor = size * mp.power(10, -(ctx.digits + GUARD_DIGITS // 2))
        kept = [k for k, x in enumerate(poly) if abs(x) > floor]
        if not kept:
            # Im f vanishes identically on the loop, and f keeps one sign there
            # as long as no zero or pole lies on it
            z = loop.point(0)
            if (_horner(num, z) / _horner(den, z)).real < 0:
                raise TangencySuspected("trace lies inside the cut")
            return []
        edge = mp.sqrt(ctx.tol)
        dnum, dden = _derivative(num), _derivative(den)
        out = []
        for w in poly_roots(poly[kept[0] : kept[-1] + 1], ctx):
            if abs(abs(w) - 1) > edge:
                continue
            t = mp.arg(w) / (2 * mp.pi) % 1
            z = loop.point(t)
            value = _horner(num, z) / _horner(den, z)
            if value.real >= 0:
                continue
            if t < edge or t > 1 - edge:
                raise TangencySuspected(
                    f"trace meets the cut at the loop's base point (t={mp.nstr(t, 8)})"
                )
            # d/dt f = (num' - f * den') / den * dz/dt
            rate = (_horner(dnum, z) - value * _horner(dden, z)) / _horner(den, z)
            rate *= loop.tangent(t)
            out.append(Crossing(param=t, point=value, orientation=-1 if rate.imag > 0 else 1))
        out.sort(key=lambda c: c.param)
        for c1, c2 in zip(out[:-1], out[1:]):
            if c2.param - c1.param < edge:
                raise TangencySuspected(
                    f"crossings at t={mp.nstr(c1.param, 8)} and "
                    f"t={mp.nstr(c2.param, 8)} are too close to separate"
                )
        return out
