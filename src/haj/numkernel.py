"""Arbitrary-precision numeric kernel.

Everything downstream funnels its numerics through this module: a precision
context with a fixed tolerance ladder, complex serialization that round-trips,
parametrized paths, a branch-stable AGM, certified path integration, and
detection of analytic traces crossing the logarithm's branch cut (the
negative real axis). Lattice cuts need no search: the invariant evaluators
trace affine maps, whose cut crossings they compute in closed form.

The working substrate is mpmath. All public operations run under a local
working precision of ``digits + GUARD_DIGITS`` decimal digits; callers never
touch the global mpmath context directly. Concurrency note: mpmath precision
is process-global state, so parallel callers must isolate by process (the CLI
does exactly that).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Union

import mpmath as mp

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
    "LatticeSegment",
    "Polyline",
    "ParamPath",
    "Crossing",
    "NegativeRealAxis",
    "agm",
    "integrate_path",
    "detect_crossings",
    "winding_number",
]


class NumKernelError(Exception):
    """Base class for kernel failures."""


class NonConvergence(NumKernelError):
    """An iteration exceeded its certified step budget."""


class QuadratureStall(NumKernelError):
    """Adaptive quadrature could not reach the requested tolerance."""


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

    def half(self) -> "PrecisionCtx":
        """A context at half the digits (floor, clamped to the minimum)."""
        return PrecisionCtx(max(32, self.digits // 2), cancelled=self.cancelled)

    def doubled(self) -> "PrecisionCtx":
        """A context at twice the digits (for soundness amplification)."""
        return PrecisionCtx(self.digits * 2, cancelled=self.cancelled)


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
# Paths
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CircleAround:
    """Circle of given radius about a center, t in [0,1] mapping to angle 2*pi*t."""

    center: object
    radius: object


@dataclasses.dataclass(frozen=True)
class LatticeSegment:
    """Straight segment z(t) = start + t*direction, t in [0,1]."""

    start: object
    direction: object


@dataclasses.dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path through the given vertices, uniform in t."""

    vertices: tuple

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("Polyline needs at least two vertices")


PathKind = Union[CircleAround, LatticeSegment, Polyline]


@dataclasses.dataclass(frozen=True)
class ParamPath:
    """A parametrized path with an orientation sign.

    ``orientation`` multiplies integrals; +1 traverses as parametrized,
    -1 reverses.
    """

    kind: PathKind
    orientation: int = 1

    def __post_init__(self) -> None:
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def point(self, t) -> mp.mpc:
        k = self.kind
        if isinstance(k, CircleAround):
            return mp.mpc(k.center) + mp.mpf(k.radius) * mp.expjpi(2 * mp.mpf(t))
        if isinstance(k, LatticeSegment):
            return mp.mpc(k.start) + mp.mpf(t) * mp.mpc(k.direction)
        verts = k.vertices
        m = len(verts) - 1
        s = mp.mpf(t) * m
        i = int(mp.floor(s))
        if i < 0:
            i = 0
        if i >= m:
            i = m - 1
        frac = s - i
        a = mp.mpc(verts[i])
        b = mp.mpc(verts[i + 1])
        return a + frac * (b - a)

    def tangent(self, t) -> mp.mpc:
        """dz/dt at parameter t (one-sided at polyline vertices)."""
        k = self.kind
        if isinstance(k, CircleAround):
            return mp.mpf(k.radius) * 2j * mp.pi * mp.expjpi(2 * mp.mpf(t))
        if isinstance(k, LatticeSegment):
            return mp.mpc(k.direction)
        verts = k.vertices
        m = len(verts) - 1
        i = int(mp.floor(mp.mpf(t) * m))
        if i < 0:
            i = 0
        if i >= m:
            i = m - 1
        return (mp.mpc(verts[i + 1]) - mp.mpc(verts[i])) * m

    def breakpoints(self) -> tuple:
        """Interior parameter values where smoothness may fail."""
        k = self.kind
        if isinstance(k, Polyline):
            m = len(k.vertices) - 1
            return tuple(mp.mpf(i) / m for i in range(1, m))
        return ()


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
# Path integration
# ---------------------------------------------------------------------------


def integrate_path(
    integrand: Callable,
    path: ParamPath,
    ctx: PrecisionCtx,
    splits: Sequence = (),
) -> mp.mpc:
    """Integrate ``integrand(t)`` over t in [0,1] along the path's orientation.

    The integrand must already include the dz/dt Jacobian (callers build it
    from path.point / path.tangent). ``splits`` lists interior parameter
    values where the integrand is non-smooth (declared cut crossings); the
    quadrature never integrates across them. Raises QuadratureStall when the
    error estimate cannot be pushed below the context tolerance.
    """
    with ctx.work():
        pts = [mp.mpf(0)]
        interior = sorted(set(mp.mpf(s) for s in tuple(splits) + path.breakpoints()))
        for s in interior:
            if 0 < s < 1 and abs(s - pts[-1]) > mp.mpf("1e-30"):
                pts.append(s)
        pts.append(mp.mpf(1))
        tol = ctx.tol
        total = mp.mpc(0)
        for left, right in zip(pts[:-1], pts[1:]):
            val, err = mp.quad(
                integrand, [left, right], method="gauss-legendre", error=True
            )
            if err > tol * (1 + abs(val)):
                val, err = mp.quad(
                    integrand,
                    [left, (left + right) / 2, right],
                    method="gauss-legendre",
                    error=True,
                    maxdegree=8,
                )
                if err > tol * (1 + abs(val)):
                    raise QuadratureStall(
                        f"quadrature error {mp.nstr(mp.mpf(err), 8)} above tolerance "
                        f"on [{mp.nstr(left, 8)}, {mp.nstr(right, 8)}]"
                    )
            total += val
        return path.orientation * total


# ---------------------------------------------------------------------------
# Cuts and crossings
# ---------------------------------------------------------------------------


class NegativeRealAxis:
    """The branch cut of the principal logarithm: (-inf, 0)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "NegativeRealAxis()"


@dataclasses.dataclass(frozen=True)
class Crossing:
    """One transversal crossing of a cut.

    ``param`` is the path parameter (accurate to ctx.tol), ``point`` the trace
    value there, ``orientation`` the signed crossing direction.
    """

    param: object
    point: object
    orientation: int


def _bisect_root(fn: Callable, lo, hi, flo, ctx: PrecisionCtx) -> mp.mpf:
    # Plain bisection on a sign change; parameter accuracy ctx.tol.
    tol = ctx.tol
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    for _ in range(8 * ctx.digits):
        mid = (lo + hi) / 2
        if hi - lo <= tol:
            return mid
        fm = fn(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    raise NonConvergence("crossing bisection did not converge")


def detect_crossings(
    trace: Callable,
    cut,
    ctx: PrecisionCtx,
    samples: int = 257,
) -> list:
    """Locate transversal crossings of ``trace(t)``, t in [0,1], with a cut.

    The only cut handled here is NegativeRealAxis; lattice cuts of affine
    traces are solved in closed form by ``haj.invariants``. The trace is
    sampled at ``samples`` points and each sign change is bisected.

    Returns Crossing records sorted by parameter. The orientation is +1
    when the trace crosses downward through the cut (imaginary part passing
    from positive to negative), matching the convention that a positively-
    oriented loop about the origin crosses the cut exactly once with
    orientation +1.

    Raises TangencySuspected when the trace approaches the cut without a
    clean sign change, or when two crossings collide at the sampling scale.
    """
    with ctx.work():
        if isinstance(cut, NegativeRealAxis):
            return _axis_crossings(trace, ctx, samples)
        raise TypeError(f"unknown cut type: {cut!r}")


def _refined_min(fn_abs: Callable, lo, hi, ctx: PrecisionCtx):
    # Golden-section minimization of a nonnegative function; returns the
    # smallest value seen once the bracket is below sqrt(tol).
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    stop = mp.sqrt(ctx.tol)
    phi = (mp.sqrt(5) - 1) / 2
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1 = fn_abs(x1)
    f2 = fn_abs(x2)
    best = min(f1, f2)
    for _ in range(8 * ctx.digits):
        if hi - lo < stop:
            return best
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = fn_abs(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = fn_abs(x2)
        best = min(best, f1, f2)
    return best


def _tangency_sweep(
    vals: list,
    ts: list,
    fn_abs: Callable,
    scale,
    ctx: PrecisionCtx,
    relevant: Callable,
) -> None:
    """Raise TangencySuspected for same-sign local minima that refine to ~0.

    A dip of |vals| below scale*1e-3 without a sign change triggers a
    golden-section refinement; a refined minimum below scale*sqrt(tol) means
    the trace touches the cut to working precision.
    """
    prefilter = scale * mp.mpf("1e-3")
    threshold = scale * mp.sqrt(ctx.tol)
    n = len(vals)
    for i in range(1, n - 1):
        if vals[i] == 0:
            continue  # exact hits are classified by the passage scan
        if (vals[i - 1] > 0) != (vals[i] > 0) or (vals[i] > 0) != (vals[i + 1] > 0):
            continue
        if not relevant(i):
            continue
        a3, b3, c3 = abs(vals[i - 1]), abs(vals[i]), abs(vals[i + 1])
        if b3 <= a3 and b3 <= c3 and b3 < prefilter and (b3 < a3 or b3 < c3):
            m = _refined_min(fn_abs, ts[i - 1], ts[i + 1], ctx)
            if m < threshold:
                raise TangencySuspected(
                    f"trace touches the cut near t={mp.nstr(ts[i], 8)} "
                    f"(refined clearance {mp.nstr(m, 8)})"
                )


def _zero_level_passages(vals: list, ts: list, refine: Callable, relevant: Callable) -> list:
    """Signed zero passages of a sampled real function.

    ``vals[i]`` is the gating function at ``ts[i]``. Returns (param, after_sign)
    pairs where after_sign is +1 when the function passes from - to +. Exact
    zeros landed on by the grid are classified by the surrounding signs;
    touches without a sign change raise TangencySuspected when ``relevant``
    (a predicate on the sample index) says the touch point
    actually lies on the cut.
    """
    out = []
    n = len(vals)
    for i in range(n - 1):
        a, b = vals[i], vals[i + 1]
        if b == 0:
            continue  # classified when scanning the next interval
        if a == 0:
            matters = relevant(i)
            j = i - 1
            while j >= 0 and vals[j] == 0:
                j -= 1
            if j < 0:
                if matters:
                    raise TangencySuspected("trace starts on the cut at t=0")
                continue
            if (vals[j] > 0) == (b > 0):
                if matters:
                    raise TangencySuspected(
                        f"trace touches the cut without crossing at t={mp.nstr(ts[i], 8)}"
                    )
                continue
            if matters:
                out.append((ts[i], 1 if b > 0 else -1))
            continue
        if (a > 0) != (b > 0):
            root = refine(ts[i], ts[i + 1], a)
            if root is not None:
                out.append((root, 1 if b > 0 else -1))
    return out


def _axis_crossings(trace: Callable, ctx: PrecisionCtx, samples: int) -> list:
    ts = [mp.mpf(i) / (samples - 1) for i in range(samples)]
    ws = [mp.mpc(trace(t)) for t in ts]
    ims = [w.imag for w in ws]
    scale = max([abs(w) for w in ws] + [mp.mpf(1)])

    def refine(lo, hi, flo):
        root = _bisect_root(lambda t: mp.mpc(trace(t)).imag, lo, hi, flo, ctx)
        # Sign changes on the positive real half are not cut crossings.
        return root if mp.mpc(trace(root)).real < 0 else None

    if all(v == 0 for v in ims) and any(w.real < 0 for w in ws):
        raise TangencySuspected("trace lies inside the cut")
    if ims[-1] == 0 and ws[-1].real < 0 and ims[-2] != 0:
        raise TangencySuspected("trace ends on the cut at t=1")
    passages = _zero_level_passages(ims, ts, refine, lambda i: ws[i].real < 0)
    out = []
    for root, after in passages:
        w = mp.mpc(trace(root))
        out.append(Crossing(param=root, point=w, orientation=-after))
    _tangency_sweep(
        ims,
        ts,
        lambda t: abs(mp.mpc(trace(t)).imag),
        scale,
        ctx,
        relevant=lambda i: ws[i].real < 0,
    )
    _check_separation(out, samples)
    return out


def _check_separation(crossings: list, samples: int) -> None:
    min_gap = mp.mpf(1) / (4 * (samples - 1))
    for c1, c2 in zip(crossings[:-1], crossings[1:]):
        if abs(mp.mpf(c2.param) - mp.mpf(c1.param)) < min_gap:
            raise TangencySuspected(
                f"crossings at t={mp.nstr(mp.mpf(c1.param), 8)} and "
                f"t={mp.nstr(mp.mpf(c2.param), 8)} are too close to separate"
            )


def winding_number(trace: Callable, ctx: PrecisionCtx, samples: int = 1024) -> int:
    """Winding number of a closed trace about the origin (independent of cuts).

    Accumulates continuous argument increments over a fine sampling; each step
    must rotate by less than pi/2, else the sampling is refined once.
    """
    with ctx.work():
        for n in (samples, samples * 8):
            ts = [mp.mpf(i) / n for i in range(n + 1)]
            ws = [mp.mpc(trace(t)) for t in ts]
            total = mp.mpf(0)
            ok = True
            for a, b in zip(ws[:-1], ws[1:]):
                if a == 0 or b == 0:
                    raise NumKernelError("trace passes through the origin")
                step = mp.arg(b / a)
                if abs(step) > mp.pi / 2:
                    ok = False
                    break
                total += step
            if ok:
                return int(mp.nint(total / (2 * mp.pi)))
        raise NonConvergence("winding sampling too coarse even after refinement")
