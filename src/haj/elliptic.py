"""Elliptic curves over the rationals: periods, fundamental-domain reduction,
Weierstrass functions, elliptic logarithms, the exact group law, and
bounded torsion testing.

Curve model is y^2 = 4x^3 - g2*x - g3 throughout (so the invariant
differential is dx/y). A curve in short form y^2 = x^3 + ax + b is passed
as g2 = -4a, g3 = -4b, the substitution (x, y) -> (x, 2y).

Each curve has one period basis, the same at every precision:
``compute_periods`` labels the cubic's roots by one rule and runs the AGM
once, since with the optimal complex AGM any labeling gives periods
(Cremona and Thongjunthug, J. Number Theory 133, 2013), and
``_gauss_reduce`` breaks its ties by rule rather than by rounding.

A period lattice depends only on the curve and the digits, so
``period_lattice`` keeps one per (curve, digits) for the life of the
process, and the cubic's roots are memoized the same way. The pool is per
process: forked ``--jobs`` workers start with an empty one, because the
batch parent computes no lattice before it forks, and each fills its own.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath as mp

from .numkernel import GUARD_DIGITS, PrecisionCtx, _to_mpf, agm, poly_roots

__all__ = [
    "EllipticError",
    "DegenerateCurve",
    "PoleAtInput",
    "InversionMismatch",
    "PeriodValidationFailed",
    "EllipticCurve",
    "CurvePoint",
    "PeriodLatticeData",
    "compute_periods",
    "period_lattice",
    "eisenstein_invariants",
    "weierstrass_p",
    "elliptic_log",
    "point_neg",
    "point_add",
    "point_mul",
    "TorsionResult",
    "is_torsion",
]


class EllipticError(Exception):
    pass


class DegenerateCurve(EllipticError):
    """Discriminant g2^3 - 27*g3^2 vanishes."""


class PoleAtInput(EllipticError):
    """Weierstrass evaluation requested at (or too close to) a lattice point."""


class InversionMismatch(EllipticError):
    """Neither sign of the candidate elliptic logarithm reproduces y(p)."""


class PeriodValidationFailed(EllipticError):
    """The labeled period basis failed the Eisenstein reconstruction check."""


RationalLike = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


@dataclasses.dataclass(frozen=True)
class EllipticCurve:
    """y^2 = 4x^3 - g2*x - g3 with exact rational invariants."""

    g2: Fraction
    g3: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "g2", _as_fraction(self.g2))
        object.__setattr__(self, "g3", _as_fraction(self.g3))
        if self.discriminant() == 0:
            raise DegenerateCurve(f"g2={self.g2}, g3={self.g3} has zero discriminant")

    def discriminant(self) -> Fraction:
        return self.g2**3 - 27 * self.g3**2

    def rhs(self, x):
        return 4 * x**3 - self.g2 * x - self.g3

    def contains(self, p: "CurvePoint", ctx: Optional[PrecisionCtx] = None) -> bool:
        if p.is_infinity():
            return True
        if p.is_exact():
            return p.y * p.y == self.rhs(p.x)
        ctx = ctx or PrecisionCtx(32)
        with ctx.work():
            x = mp.mpc(p.x)
            y = mp.mpc(p.y)
            g2 = _to_mpf(self.g2)
            g3 = _to_mpf(self.g3)
            scale = 1 + abs(x) ** 3 + abs(y) ** 2
            return abs(y * y - (4 * x**3 - g2 * x - g3)) < ctx.tol * scale

    def to_json(self) -> dict:
        return {
            "g2": "%d/%d" % (self.g2.numerator, self.g2.denominator),
            "g3": "%d/%d" % (self.g3.numerator, self.g3.denominator),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EllipticCurve":
        return cls(
            g2=Fraction(doc["g2"]), g3=Fraction(doc["g3"]),
            label=doc.get("label", ""),
        )


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """A point on an elliptic curve: Infinity or Affine(x, y).

    Coordinates are exact rationals (Fraction) or high-precision complex
    values; exactness is preserved by the group law whenever both operands
    are exact.
    """

    kind: str
    x: object = None
    y: object = None

    _INFINITY_KIND = "infinity"
    _AFFINE_KIND = "affine"

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(kind=cls._INFINITY_KIND)

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        if isinstance(x, (int, str)) or isinstance(x, Fraction):
            x = _as_fraction(x)
        if isinstance(y, (int, str)) or isinstance(y, Fraction):
            y = _as_fraction(y)
        return cls(kind=cls._AFFINE_KIND, x=x, y=y)

    def is_infinity(self) -> bool:
        return self.kind == self._INFINITY_KIND

    def is_exact(self) -> bool:
        return self.is_infinity() or (
            isinstance(self.x, Fraction) and isinstance(self.y, Fraction)
        )

    @staticmethod
    def _coord_str(v) -> str:
        if isinstance(v, Fraction):
            return "%d/%d" % (v.numerator, v.denominator)
        return mp.nstr(mp.mpmathify(v), 40)

    def to_json(self):
        if self.is_infinity():
            return "infinity"
        return {"x": self._coord_str(self.x), "y": self._coord_str(self.y)}

    @classmethod
    def from_json(cls, doc) -> "CurvePoint":
        if doc == "infinity":
            return cls.infinity()
        return cls.affine(doc["x"], doc["y"])


INFINITY = CurvePoint.infinity()


# ---------------------------------------------------------------------------
# Laurent coefficients of the Weierstrass function
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _laurent_coeffs_mpf(g2: Fraction, g3: Fraction, count: int, dps: int) -> tuple:
    """Coefficients c_2..c_{count+1} of p(z) = z^-2 + sum c_k z^{2k-2} at dps.

    c_2 = g2/20, c_3 = g3/28, and for k >= 4 (DLMF 23.9)
    c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m},
    run in mpf with GUARD_DIGITS extra digits and rounded to dps.
    """
    with mp.workdps(dps + GUARD_DIGITS):
        cs = [None, None, _to_mpf(g2) / 20, _to_mpf(g3) / 28]
        for k in range(4, count + 2):
            acc = mp.mpf(0)
            for m in range(2, k - 1):
                acc += cs[m] * cs[k - m]
            cs.append(3 * acc / ((2 * k + 1) * (k - 3)))
    with mp.workdps(dps):
        return tuple(+c for c in cs[2:])


class PeriodLatticeData:
    """A computed period basis (omega_alpha, omega_beta) with tau = beta/alpha.

    Also carries the curve and the precision at which the periods were
    computed, plus the fundamental-domain coordinate helpers the invariant
    evaluators reduce with.
    """

    def __init__(self, curve: EllipticCurve, omega_alpha, omega_beta, digits: int):
        self.curve = curve
        self.omega_alpha = mp.mpc(omega_alpha)
        self.omega_beta = mp.mpc(omega_beta)
        self.tau = self.omega_beta / self.omega_alpha
        self.digits = digits
        if not self.tau.imag > 0:
            raise ValueError("period basis must have Im(tau) > 0")
        self._shortest = None

    def coords(self, z) -> Tuple[mp.mpf, mp.mpf]:
        """Real lattice coordinates (s, t) with z = s*omega_alpha + t*omega_beta."""
        wa = self.omega_alpha
        wb = self.omega_beta
        z = mp.mpc(z)
        det = wa.real * wb.imag - wa.imag * wb.real
        s = (z.real * wb.imag - z.imag * wb.real) / det
        t = (wa.real * z.imag - wa.imag * z.real) / det
        return s, t

    def from_coords(self, s, t) -> mp.mpc:
        return mp.mpf(s) * self.omega_alpha + mp.mpf(t) * self.omega_beta

    def _snap_frac(self, s, snap) -> mp.mpf:
        half = mp.mpf("0.5")
        f = s - mp.floor(s + half)  # lands in [-1/2, 1/2)
        if f >= half - snap or f < -half + snap:
            # boundary zone: both edges identify to the -1/2 representative
            f = -half
        return f

    def reduce_coords(self, z) -> Tuple[mp.mpf, mp.mpf]:
        snap = mp.power(10, -(self.digits * 4) // 5)
        # z is rounded to the working precision before its coordinates are taken
        s, t = self.coords(+mp.mpc(z))
        return self._snap_frac(s, snap), self._snap_frac(t, snap)

    def reduce(self, z) -> mp.mpc:
        """Representative of z in the fundamental parallelogram about 0.

        Coordinates are taken in the half-open box [-1/2, 1/2)^2 with
        tolerance snapping at the boundary, so reduction is deterministic on
        lattice-coordinate half-integers. The two cuts are the images of the
        box edges; every chi2 and chi3 value is defined modulo the period
        lattice, so this one cut system serves them all.
        """
        return self.from_coords(*self.reduce_coords(z))

    def shortest_vector_norm(self) -> mp.mpf:
        """Shortest of the 24 vectors m*alpha + n*beta with |m|, |n| <= 2,
        computed once at the lattice's own precision."""
        if self._shortest is None:
            with mp.workdps(self.digits + GUARD_DIGITS):
                self._shortest = min(
                    abs(m * self.omega_alpha + n * self.omega_beta)
                    for m in range(-2, 3)
                    for n in range(-2, 3)
                    if m or n
                )
        return self._shortest


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _cubic_roots(curve: EllipticCurve, ctx: PrecisionCtx) -> tuple:
    return tuple(poly_roots((-curve.g3, -curve.g2, 0, 4), ctx))


def eisenstein_invariants(omega_alpha, omega_beta, ctx: PrecisionCtx) -> Tuple[mp.mpc, mp.mpc]:
    """(g2, g3) of the lattice spanned by the given periods.

    Computed through the normalized Eisenstein series E4, E6 in the nome of a
    Gauss-reduced basis: g2 = (2pi/w1)^4 E4(tau)/12, g3 = (2pi/w1)^6 E6(tau)/216.
    Equivalent to the defining lattice sums 60 S'w^-4 and 140 S'w^-6 but with
    geometric convergence at any precision.
    """
    with ctx.work():
        w1, w2 = _gauss_reduce(omega_alpha, omega_beta, ctx)
        tau = w2 / w1
        q = mp.exp(2j * mp.pi * tau)
        # |q| <= exp(-pi*sqrt(3)) after reduction; sum until terms die
        terms = int(mp.ceil((ctx.digits + GUARD_DIGITS + 10) * mp.log(10) / (-mp.log(abs(q))))) + 3
        e4 = mp.mpc(1)
        e6 = mp.mpc(1)
        qn = mp.mpc(1)
        for n in range(1, terms + 1):
            qn = qn * q
            common = qn / (1 - qn)
            e4 += 240 * n**3 * common
            e6 -= 504 * n**5 * common
        twopi_w1 = 2 * mp.pi / w1
        g2 = twopi_w1**4 * e4 / 12
        g3 = twopi_w1**6 * e6 / 216
        return g2, g3


def _validate_basis(curve: EllipticCurve, wa, wb, ctx: PrecisionCtx) -> bool:
    with ctx.work():
        g2r, g3r = eisenstein_invariants(wa, wb, ctx)
        check_tol = mp.power(10, -mp.mpf(ctx.digits) / 2)
        ok2 = abs(g2r - _to_mpf(curve.g2)) <= check_tol * max(1, abs(_to_mpf(curve.g2)))
        ok3 = abs(g3r - _to_mpf(curve.g3)) <= check_tol * max(1, abs(_to_mpf(curve.g3)))
        return bool(ok2 and ok3)


# the rule of compute_periods by name, which period cache keys carry
_BASIS_RULE = "labeled-roots, gauss-reduced in [-1/2, 1/2)"


def compute_periods(curve: EllipticCurve, ctx: PrecisionCtx) -> PeriodLatticeData:
    """Period basis by the AGM on one labeling of the cubic's roots.

    Roots are labeled e1 > e2 > e3 when all three are real, else (the real
    root, the root with Im > 0, its conjugate); any labeling gives periods
    with ``numkernel.agm`` (Cremona and Thongjunthug, 2013), so none is
    searched. omega_alpha = pi/agm(sqrt(e1-e3), sqrt(e1-e2)) and
    omega_beta = +-i*pi/agm(sqrt(e1-e3), sqrt(e2-e3)), signed so that
    Im(tau) > 0, must pass the Eisenstein reconstruction check or
    PeriodValidationFailed is raised. Three real roots give the real pair
    as it is; otherwise the basis is Gauss-reduced. The basis is a function
    of the curve, so it does not depend on the digits.
    """
    with ctx.work():
        roots = _cubic_roots(curve, ctx)
        three_real = curve.discriminant() > 0
        if three_real:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
        else:
            e1 = mp.re(min(roots, key=lambda r: abs(mp.im(r))))
            e2 = mp.mpc(max(roots, key=mp.im))
            e3 = mp.conj(e2)
        wa = mp.pi / agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2), ctx)
        wb = 1j * mp.pi / agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3), ctx)
        if (wb / wa).imag < 0:
            wb = -wb
        if not _validate_basis(curve, wa, wb, ctx):
            raise PeriodValidationFailed(f"labeled basis failed Eisenstein validation for {curve}")
        if not three_real:
            wa, wb = _gauss_reduce(wa, wb, ctx)
        return PeriodLatticeData(curve, wa, wb, ctx.digits)


@functools.lru_cache(maxsize=256)
def period_lattice(curve: EllipticCurve, ctx: PrecisionCtx) -> PeriodLatticeData:
    """The process-wide period lattice of ``curve`` at ``ctx.digits``.

    ``compute_periods`` runs once per (curve, digits); later calls return
    the same object, which every caller shares and none may modify.
    PrecisionCtx compares by digits alone, and a failed computation raises
    and is not cached.
    """
    return compute_periods(curve, ctx)


def _gauss_reduce(w1, w2, ctx: PrecisionCtx) -> Tuple[mp.mpc, mp.mpc]:
    """Reduced basis with Im(w2/w1) > 0, |w1| <= |w2| and Re(w2/w1) in
    [-1/2, 1/2), the half-open box of ``PeriodLatticeData.reduce``.

    Both ties are broken by rule, not rounding: the projection is snapped
    within tol, so exactly +-1/2 lands on -1/2, and w1 and w2 swap only when
    |w2| < |w1|*(1 - tol). The result does not depend on the digits.
    """
    with ctx.work():
        w1 = mp.mpc(w1)
        w2 = mp.mpc(w2)
        if (w2 / w1).imag < 0:
            w2 = -w2
        half = mp.mpf(1) / 2 + ctx.tol
        for _ in range(8 * ctx.digits):
            proj = (w2 * mp.conj(w1)).real / abs(w1) ** 2
            w2 = w2 - mp.floor(proj + half) * w1
            if not abs(w2) < abs(w1) * (1 - ctx.tol):
                break
            # (w2, -w1) keeps the orientation
            w1, w2 = w2, -w1
        return w1, w2


# ---------------------------------------------------------------------------
# Weierstrass functions
# ---------------------------------------------------------------------------


def weierstrass_p(z, lat: PeriodLatticeData, ctx: PrecisionCtx) -> Tuple[mp.mpc, mp.mpc]:
    """(p(z), p'(z)) by Laurent series inside a safe disc plus exact doubling.

    The argument is first reduced to the nearest lattice translate, then
    halved until it sits inside 0.3 * (shortest lattice vector), where the
    series converges geometrically; the duplication formula (a polynomial
    identity, so precision-safe) climbs back up.
    """
    with ctx.work():
        wa = lat.omega_alpha
        wb = lat.omega_beta
        z = mp.mpc(z)
        s, t = lat.coords(z)
        w = z - (mp.nint(s) * wa + mp.nint(t) * wb)
        ell = lat.shortest_vector_norm()
        if abs(w) < ctx.tol * ell:
            raise PoleAtInput(f"z is within tolerance of the lattice: |w| = {mp.nstr(abs(w), 8)}")
        r0 = mp.mpf("0.3") * ell
        halvings = 0
        while abs(w) > r0:
            w = w / 2
            halvings += 1
        # series term count: 0.3^{2k} below the working epsilon
        kmax = int(mp.ceil((ctx.digits + GUARD_DIGITS + 12) * mp.log(10) / (2 * mp.log(1 / mp.mpf("0.3"))))) + 4
        cs = _laurent_coeffs_mpf(lat.curve.g2, lat.curve.g3, kmax, mp.mp.dps)
        w2 = w * w
        p = 1 / w2
        pp = -2 / (w2 * w)
        zpow = mp.mpc(1)
        for k in range(2, kmax + 2):
            zpow = zpow * w2  # now w^{2k-2}
            c = cs[k - 2]
            if c:
                p += c * zpow
                pp += c * (2 * k - 2) * zpow / w
        g2 = _to_mpf(lat.curve.g2)
        for _ in range(halvings):
            m = (12 * p * p - g2) / (2 * pp)
            p2 = m * m / 4 - 2 * p
            pp2 = -(m * (p2 - p) + pp)
            p, pp = p2, pp2
        return p, pp


def _half_period_logs(lat: PeriodLatticeData) -> list:
    wa = lat.omega_alpha
    wb = lat.omega_beta
    return [wa / 2, (wa + wb) / 2, wb / 2]


def elliptic_log(
    p: CurvePoint,
    curve: EllipticCurve,
    lat: PeriodLatticeData,
    ctx: PrecisionCtx,
) -> mp.mpc:
    """The elliptic logarithm xi with p(xi) = x(p), p'(xi) = y(p).

    Seeded by the symmetric elliptic integral R_F on the shifted root data and
    polished by Newton iteration against the in-house Weierstrass evaluator;
    the sign ambiguity of the integral is resolved by matching p'. Returns the
    fundamental-parallelogram representative; Infinity maps to 0.
    """
    if p.is_infinity():
        return mp.mpc(0)
    with ctx.work():
        x = mp.mpc(p.x) if not isinstance(p.x, Fraction) else mp.mpc(_to_mpf(p.x))
        y = mp.mpc(p.y) if not isinstance(p.y, Fraction) else mp.mpc(_to_mpf(p.y))
        scale_x = 1 + abs(x) ** 2
        # exact 2-torsion: y = 0 lands on a half-period
        if abs(y) < ctx.tol * (1 + abs(x)):
            for cand in _half_period_logs(lat):
                pv, _ = weierstrass_p(cand, lat, ctx)
                if abs(pv - x) < ctx.tol * scale_x * 100:
                    return lat.reduce(cand)
            raise InversionMismatch("2-torsion point does not match any half-period")
        roots = _cubic_roots(curve, ctx)
        seed = mp.elliprf(x - roots[0], x - roots[1], x - roots[2])
        wa = lat.omega_alpha
        wb = lat.omega_beta
        candidates = [
            seed,
            -seed,
            seed + wa / 2,
            seed + wb / 2,
            seed + (wa + wb) / 2,
        ]
        tol_obj = ctx.tol * scale_x
        for z0 in candidates:
            z = mp.mpc(z0)
            converged = False
            for _ in range(60):
                try:
                    pv, ppv = weierstrass_p(z, lat, ctx)
                except PoleAtInput:
                    break
                err = pv - x
                if abs(err) < tol_obj:
                    converged = True
                    break
                if ppv == 0:
                    break
                step = err / ppv
                # keep Newton from jumping across the lattice
                cap = lat.shortest_vector_norm() / 4
                if abs(step) > cap:
                    step = step / abs(step) * cap
                z = z - step
            if not converged:
                continue
            _, ppv = weierstrass_p(z, lat, ctx)
            sign_tol = mp.sqrt(ctx.tol) * (1 + abs(y))
            if abs(ppv - y) < sign_tol:
                return lat.reduce(z)
            if abs(-ppv - y) < sign_tol:
                return lat.reduce(-z)
            raise InversionMismatch(
                f"candidate log has p' = {mp.nstr(ppv, 12)}, point has y = {mp.nstr(y, 12)}"
            )
        raise InversionMismatch("no seed converged to the requested x-coordinate")


# ---------------------------------------------------------------------------
# Group law
# ---------------------------------------------------------------------------


def _coerce_pair(p: CurvePoint, q: CurvePoint):
    # exact when both exact; otherwise lift to mpc at the ambient precision
    if p.is_exact() and q.is_exact():
        return p.x, p.y, q.x, q.y, True
    def lift(v):
        return _to_mpf(v) if isinstance(v, Fraction) else mp.mpc(v)
    return lift(p.x), lift(p.y), lift(q.x), lift(q.y), False


def point_neg(p: CurvePoint) -> CurvePoint:
    if p.is_infinity():
        return p
    return CurvePoint(kind=CurvePoint._AFFINE_KIND, x=p.x, y=-p.y)


def point_add(p: CurvePoint, q: CurvePoint, curve: EllipticCurve) -> CurvePoint:
    """Chord-tangent addition on y^2 = 4x^3 - g2 x - g3.

    Exact over the rationals; slope m = (y2-y1)/(x2-x1) or
    (12x^2 - g2)/(2y) for doubling, with x3 = m^2/4 - x1 - x2 and
    y3 = -(m(x3 - x1) + y1).
    """
    if p.is_infinity():
        return q
    if q.is_infinity():
        return p
    x1, y1, x2, y2, exact = _coerce_pair(p, q)
    g2 = curve.g2 if exact else _to_mpf(curve.g2)
    if x1 == x2:
        if exact:
            opposite = y1 + y2 == 0
        else:
            opposite = abs(y1 + y2) < mp.mpf(10) ** -(mp.mp.dps - 8)
        if opposite:
            return INFINITY
        m = (12 * x1 * x1 - g2) / (2 * y1)
    else:
        m = (y2 - y1) / (x2 - x1)
    x3 = m * m / 4 - x1 - x2
    y3 = -(m * (x3 - x1) + y1)
    return CurvePoint(kind=CurvePoint._AFFINE_KIND, x=x3, y=y3)


def point_mul(n: int, p: CurvePoint, curve: EllipticCurve) -> CurvePoint:
    if n < 0:
        return point_mul(-n, point_neg(p), curve)
    acc = INFINITY
    base = p
    while n:
        if n & 1:
            acc = point_add(acc, base, curve)
        base = point_add(base, base, curve)
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# Torsion
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TorsionResult:
    """Outcome of the bounded torsion test.

    ``kind`` is "torsion" (with the minimal order) or "not-torsion-up-to"
    (a bounded statement). For the latter, ``log_evidence`` carries the
    heuristic lattice-membership certificate showing the elliptic log found
    no rational relation with the periods up to the default search height.
    """

    kind: str
    bound: int
    order: Optional[int] = None
    log_evidence: object = None


def is_torsion(
    p: CurvePoint, curve: EllipticCurve, bound: int = 16, ctx: Optional[PrecisionCtx] = None
) -> TorsionResult:
    if not p.is_exact():
        raise ValueError("torsion test needs exact rational coordinates")
    if p.is_infinity():
        return TorsionResult(kind="torsion", bound=bound, order=1)
    acc = p
    for n in range(1, bound + 1):
        if acc.is_infinity():
            return TorsionResult(kind="torsion", bound=bound, order=n)
        acc = point_add(acc, p, curve)

    evidence = None
    if ctx is not None:
        from .relations import lattice_membership

        lat = period_lattice(curve, ctx)
        xi = elliptic_log(p, curve, lat, ctx)
        evidence = lattice_membership(
            [xi], [[lat.omega_alpha], [lat.omega_beta]], ctx=ctx
        )
    return TorsionResult(kind="not-torsion-up-to", bound=bound, log_evidence=evidence)
