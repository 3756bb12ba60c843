"""Integer-relation detection and rational lattice membership.

Two engines live here. ``pslq`` is a one-level PSLQ over the reals that
either finds an integer relation, certifies that none exists below a height
bound (via the algorithm's dual norm bound), or admits defeat with
``PrecisionExhausted``. ``lattice_membership`` decides simultaneous rational
membership of a complex vector in the span of generator vectors through a
single scaled-LLL embedding, producing an explicit certificate either way.

Both LLL embeddings (``integer_relation_complex`` and ``lattice_membership``)
divide the data by their largest modulus and round them to integers at the
scale 10^s, where s is the decimal height budget 1.5 * n * log10(H) that
``_require_height_budget`` enforces plus a margin that grows with n; the
scale never exceeds 10^digits. The scale only has to separate height-H
relations from everything else, so the LLL entries grow with the height
bound, not with ``--digits``, and data of any magnitude get the same s
significant digits. The reduction is the all-integer variant (exact
arithmetic, delta = 3/4), so certificates never depend on floating-point
rounding inside the lattice step; every candidate row is verified against
the original data at full working precision.

A ``NoRelationUpTo`` verdict is search evidence, not a proof: it records the
exact bounds swept and is labeled non-conclusive in serialized form.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath as mp

from .numkernel import BigComplex, NumKernelError, PrecisionCtx, _to_mpf

__all__ = [
    "PrecisionExhausted",
    "IntegerRelation",
    "LatticeMembership",
    "pslq",
    "lll_reduce",
    "integer_relation_complex",
    "lattice_membership",
    "detect_tau_relation",
]


class PrecisionExhausted(NumKernelError):
    """Neither a qualifying relation nor an exhaustion certificate was
    reachable at the requested precision."""


@dataclasses.dataclass(frozen=True)
class IntegerRelation:
    """A verified integer relation sum(coeffs[i] * x[i]) ~ 0.

    ``residual`` is the recombination error measured against the original
    input at working precision; ``norm_bound`` is the algorithm's lower bound
    on the 2-norm of any other relation at the moment of detection (None when
    the detection route does not produce one).
    """

    coeffs: Tuple[int, ...]
    residual: mp.mpf
    norm_bound: Optional[mp.mpf] = None

    def __post_init__(self) -> None:
        if not any(self.coeffs):
            raise ValueError("relation coefficients must not all vanish")

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coeffs)

    def to_json(self, ctx: PrecisionCtx) -> dict:
        return {
            "coefficients": [str(c) for c in self.coeffs],
            "residual": mp.nstr(self.residual, 12),
            "height": self.height,
            "precision": ctx.digits,
        }


@dataclasses.dataclass(frozen=True)
class LatticeMembership:
    """Certificate for the question: is n0*v = sum(n_i * g_i) solvable with
    n0 <= max_den and height(n) <= max_height?

    ``verdict`` is "member" or "no-relation-up-to". For members,
    ``coefficients`` holds n_i/n0 in lowest terms and ``residual`` the
    componentwise recombination error. For non-members ``residual`` is the
    best (smallest) candidate residual the search saw, when any candidate
    had a nonzero denominator column.
    """

    verdict: str
    coefficients: Optional[Tuple[Fraction, ...]]
    residual: Optional[mp.mpf]
    max_den: int
    max_height: int
    digits: int
    amplified: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"

    def to_json(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "coefficients": None,
            "residual": None if self.residual is None else mp.nstr(self.residual, 12),
            "height": self.max_height,
            "max_denominator": self.max_den,
            "precision": self.digits,
            "amplified": self.amplified,
        }
        if self.coefficients is not None:
            doc["coefficients"] = [
                "%d/%d" % (c.numerator, c.denominator) for c in self.coefficients
            ]
        if not self.is_member:
            doc["conclusive"] = False
            doc["note"] = (
                "search evidence only: no relation found within the stated "
                "bounds; this is not a proof of non-membership"
            )
        if self.notes:
            doc["search_notes"] = list(self.notes)
        return doc


# ---------------------------------------------------------------------------
# PSLQ (one-level, gamma = sqrt(4/3))
# ---------------------------------------------------------------------------


def _height_budget(n: int, max_height: int) -> float:
    """Decimal digits needed to separate a height-``max_height`` relation
    among ``n`` numbers: 1.5 * n * log10(H)."""
    return 1.5 * n * math.log10(max(max_height, 2))


def _require_height_budget(n: int, max_height: int, ctx: PrecisionCtx) -> None:
    budget = _height_budget(n, max_height)
    if ctx.digits < budget:
        raise PrecisionExhausted(
            "working precision %d digits is below 1.5x the decimal height "
            "budget (%.1f digits) for height %d in dimension %d"
            % (ctx.digits, budget, max_height, n)
        )


def pslq(
    xs: Sequence,
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
) -> Optional[IntegerRelation]:
    """Find an integer relation among real numbers, or certify its absence.

    Returns an IntegerRelation with height <= max_height when one is found,
    or None when the norm bound proves no relation of that height exists.
    Raises PrecisionExhausted when the iteration budget or the numerics die
    before either outcome; the exception message carries the norm bound
    reached, which is itself NoRelation evidence up to that bound.
    """

    if len(xs) == 0:
        raise ValueError("pslq needs a nonempty input vector")
    if max_height < 1:
        raise ValueError("max_height must be positive")
    _require_height_budget(len(xs), max_height, ctx)

    with ctx.work():
        vals = []
        for x in xs:
            z = mp.mpmathify(x)
            if isinstance(z, mp.mpc):
                if abs(z.imag) > ctx.tol * (1 + abs(z.real)):
                    raise ValueError(
                        "pslq takes real input; use integer_relation_complex"
                    )
                z = z.real
            vals.append(mp.mpf(z))
        return _pslq_core(vals, max_height, ctx)


def _pslq_core(vals: List[mp.mpf], max_height: int, ctx: PrecisionCtx):
    n = len(vals)
    scale = max([mp.mpf(1)] + [abs(v) for v in vals])
    accept = ctx.relation_tol * scale

    if n == 1:
        if abs(vals[0]) < accept:
            return IntegerRelation((1,), abs(vals[0]))
        return None

    # Trivial zero entries admit an immediate unit relation.
    for i, v in enumerate(vals):
        if v == 0:
            coeffs = tuple(1 if j == i else 0 for j in range(n))
            return IntegerRelation(coeffs, mp.mpf(0))

    gamma = mp.sqrt(mp.mpf(4) / 3)
    detect_eps = mp.mpf(10) ** (-(mp.mp.dps - 8))
    cert_bar = 2 * mp.mpf(max_height) * mp.sqrt(n)

    # Normalized y and the partial-sum seeds for H.
    s = [mp.sqrt(mp.fsum(v * v for v in vals[k:])) for k in range(n)]
    t = 1 / s[0]
    y = [v * t for v in vals]
    s = [sk * t for sk in s]

    H = [[mp.mpf(0)] * (n - 1) for _ in range(n)]
    for j in range(n - 1):
        H[j][j] = s[j + 1] / s[j]
        for i in range(j + 1, n):
            H[i][j] = -(y[i] * y[j]) / (s[j] * s[j + 1])

    B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def size_reduce(i: int, j: int) -> None:
        if H[j][j] == 0:
            return
        q = int(mp.nint(H[i][j] / H[j][j]))
        if q == 0:
            return
        y[j] += q * y[i]
        for k in range(j + 1):
            H[i][k] -= q * H[j][k]
        for k in range(n):
            B[k][j] += q * B[k][i]

    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            size_reduce(i, j)

    best_bound = mp.mpf(0)
    max_steps = 2000 + 200 * n * len(str(max_height))
    for step in range(max_steps):
        if step % 64 == 0:
            ctx.check_cancel()

        # Row with the gamma-weighted largest diagonal moves down.
        m, mval = 0, mp.mpf(-1)
        gpow = mp.mpf(1)
        for i in range(n - 1):
            gpow *= gamma
            w = gpow * abs(H[i][i])
            if w > mval:
                m, mval = i, w

        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        for k in range(n):
            B[k][m], B[k][m + 1] = B[k][m + 1], B[k][m]

        if m < n - 2:
            t0 = mp.hypot(H[m][m], H[m][m + 1])
            if t0 != 0:
                c, sgn = H[m][m] / t0, H[m][m + 1] / t0
                for i in range(m, n):
                    a, b = H[i][m], H[i][m + 1]
                    H[i][m] = c * a + sgn * b
                    H[i][m + 1] = -sgn * a + c * b

        for i in range(m + 1, n):
            for j in range(min(i - 1, m + 1), -1, -1):
                size_reduce(i, j)

        diag = max(abs(H[j][j]) for j in range(n - 1))
        if diag > 0:
            best_bound = max(best_bound, 1 / diag)

        hits = [i for i in range(n) if abs(y[i]) < detect_eps]
        if hits:
            qualifying = []
            verified_any = False
            for imin in hits:
                coeffs = tuple(int(B[i][imin]) for i in range(n))
                if not any(coeffs):
                    continue
                resid = abs(mp.fsum(c * v for c, v in zip(coeffs, vals)))
                if resid >= accept:
                    continue
                verified_any = True
                if max(abs(c) for c in coeffs) <= max_height:
                    qualifying.append((max(abs(c) for c in coeffs), coeffs, resid))
            if qualifying:
                qualifying.sort(key=lambda t: (t[0], t[1]))
                _, coeffs, resid = qualifying[0]
                return IntegerRelation(coeffs, resid, norm_bound=best_bound)
            if verified_any:
                # Only oversized relations detected; the bound decides whether
                # a smaller one can still be hiding.
                if best_bound > cert_bar:
                    return None
                raise PrecisionExhausted(
                    "smallest relation found exceeds height %d and the norm "
                    "bound %s cannot exclude smaller ones"
                    % (max_height, mp.nstr(best_bound, 8))
                )
            raise PrecisionExhausted(
                "pslq detection failed verification; norm bound reached: %s"
                % mp.nstr(best_bound, 8)
            )

        if best_bound > cert_bar:
            return None

    raise PrecisionExhausted(
        "pslq iteration budget exhausted; no relation of height <= %s "
        "exists with 2-norm below %s" % (max_height, mp.nstr(best_bound, 8))
    )


# ---------------------------------------------------------------------------
# Exact integer LLL (delta = 3/4)
# ---------------------------------------------------------------------------


def lll_reduce(rows: Sequence[Sequence[int]], ctx: Optional[PrecisionCtx] = None) -> List[List[int]]:
    """LLL-reduce linearly independent integer row vectors, exactly.

    All-integer formulation: the Gram-Schmidt data is carried as the integer
    quantities d_i (leading principal Gram determinants) and lambda_ij =
    d_j * mu_ij, so every division below is exact. Returns a new list of rows
    spanning the same lattice, LLL-reduced with delta = 3/4.
    """

    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n == 0:
        return []
    width = len(b[0])
    if any(len(r) != width for r in b):
        raise ValueError("rows must share a common length")
    if n == 1:
        return b

    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    for i in range(1, n + 1):
        bi = b[i - 1]
        for j in range(1, i + 1):
            u = sum(x * y for x, y in zip(bi, b[j - 1]))
            for k in range(1, j):
                u = (d[k] * u - lam[i][k] * lam[j][k]) // d[k - 1]
            if j < i:
                lam[i][j] = u
            else:
                if u == 0:
                    raise ValueError("rows must be linearly independent")
                d[i] = u

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            bk, bl = b[k - 1], b[l - 1]
            for idx in range(width):
                bk[idx] -= q * bl[idx]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]
            lam[k][l] -= q * d[l]

    def swap(k: int) -> None:
        b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        dnew = (d[k - 2] * d[k] + lam_ * lam_) // d[k - 1]
        for i in range(k + 1, n + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lam_ * t) // d[k - 1]
            lam[i][k - 1] = (dnew * t + lam_ * lam[i][k]) // d[k]
        d[k - 1] = dnew

    k = 2
    steps = 0
    while k <= n:
        steps += 1
        if ctx is not None and steps % 256 == 0:
            ctx.check_cancel()
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] * d[k - 1] - 4 * lam[k][k - 1] * lam[k][k - 1]:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return b


# ---------------------------------------------------------------------------
# Scaled-LLL embeddings over the complexes
# ---------------------------------------------------------------------------


# Digits of embedding scale beyond the height budget, for N rows. The data
# are divided by their largest modulus and scaled by 10^s, so with r nonzero
# real columns a vector that is not a relation is about 10^(s*r/N) long, at
# least 10^(s/N); a height-H relation is at most N*H long (its scaled column
# sums N rounding errors). With s = 1.5*N*log10(H) + margin, the spurious
# length is at least H^1.5 * 10^(margin/N), so a margin with
# 10^(margin/N) >= 10 * N * 2^((N-1)/2) keeps every height-H relation ten
# times LLL's worst-case loss 2^((N-1)/2) below the shortest spurious vector,
# for every N and H. The floor of 10 digits only adds slack at N <= 4.
_SCALE_MARGIN_FLOOR = 10


def _scale_margin(n: int) -> int:
    return max(_SCALE_MARGIN_FLOOR,
               math.ceil(n * math.log10(10 * n * 2 ** ((n - 1) / 2))))


def _embedding_scale(n: int, max_height: int, size: mp.mpf, ctx: PrecisionCtx) -> mp.mpf:
    """Scale that gives data of largest modulus ``size`` s significant
    digits, s the height budget plus margin (at most the precision), and
    never exceeds 10^digits."""
    s = min(ctx.digits, math.ceil(_height_budget(n, max_height)) + _scale_margin(n))
    rel = mp.mpf(10) ** s
    if size > 0:
        rel /= size
    return min(mp.mpf(10) ** ctx.digits, rel)


def _scaled_int(x: mp.mpf, scale: mp.mpf) -> int:
    return int(mp.nint(x * scale))


def _embed_rows(vectors: List[List[BigComplex]], scale: mp.mpf) -> List[List[int]]:
    n = len(vectors)
    rows = []
    for i, vec in enumerate(vectors):
        head = [1 if j == i else 0 for j in range(n)]
        tail: List[int] = []
        for z in vec:
            zc = mp.mpc(z)
            tail.append(_scaled_int(zc.real, scale))
            tail.append(_scaled_int(zc.imag, scale))
        rows.append(head + tail)
    return rows


def _normalize_sign(coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-x for x in coeffs)
    return coeffs


def integer_relation_complex(
    xs: Sequence[BigComplex],
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
) -> Optional[IntegerRelation]:
    """Integer relation sum(c_i * x_i) ~ 0 among complex numbers.

    Reduction of the standard scaled integer embedding; candidates are
    verified by direct recombination. Returns the qualifying relation of
    least height (ties broken lexicographically after sign normalization),
    or None when the reduced basis contains no qualifying row. The None
    branch is search evidence at the stated bounds, not a proof.
    """

    if len(xs) == 0:
        raise ValueError("empty input vector")
    _require_height_budget(len(xs), max_height, ctx)

    with ctx.work():
        vals = [mp.mpc(x) for x in xs]
        n = len(vals)
        size = max(abs(v) for v in vals)
        scale = _embedding_scale(n, max_height, size, ctx)
        # relative, so data far below modulus 1 cannot pass with any relation
        accept = ctx.relation_tol * size

        rows = lll_reduce(_embed_rows([[v] for v in vals], scale), ctx)
        candidates = []
        for row in rows:
            coeffs = _normalize_sign(tuple(row[:n]))
            if not any(coeffs):
                continue
            if max(abs(c) for c in coeffs) > max_height:
                continue
            resid = abs(mp.fsum(c * v for c, v in zip(coeffs, vals)))
            if resid <= accept:
                candidates.append((max(abs(c) for c in coeffs), coeffs, resid))
        if not candidates:
            return None
        candidates.sort(key=lambda t: (t[0], t[1]))
        _, coeffs, resid = candidates[0]
        return IntegerRelation(coeffs, resid)


def lattice_membership(
    v: Sequence[BigComplex],
    gens: Sequence[Sequence[BigComplex]],
    max_den: int = 10**3,
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
    recompute: Optional[Callable] = None,
) -> LatticeMembership:
    """Decide whether n0*v = sum(n_i * g_i) has a small integer solution.

    The decision is simultaneous across all 2k real coordinates via one
    scaled-LLL reduction. ``recompute``, when given, must map a PrecisionCtx
    to a fresh (v, gens) pair evaluated at that precision; it is called at
    most once, and member verdicts are then re-verified at doubled precision
    and must shrink their residual by 10^(digits/4), which a coincidental
    near-relation cannot do.
    """

    if len(gens) == 0:
        raise ValueError("gens must be nonempty")
    k = len(v)
    if any(len(g) != k for g in gens):
        raise ValueError("v and all generators must share one length")
    m = len(gens)
    height = max(max_height, max_den)
    _require_height_budget(m + 1, height, ctx)

    with ctx.work():
        vv = [mp.mpc(z) for z in v]
        gg = [[mp.mpc(z) for z in g] for g in gens]
        size = max([mp.mpf(0)] + [abs(z) for z in vv] + [abs(z) for g in gg for z in g])
        scale = _embedding_scale(m + 1, height, size, ctx)
        scl = max(mp.mpf(1), size)
        accept = ctx.relation_tol * scl

        rows = lll_reduce(_embed_rows([vv] + gg, scale), ctx)

        def residual_of(coeffs: Sequence[Fraction], vs, gs) -> mp.mpf:
            worst = mp.mpf(0)
            for j in range(k):
                acc = vs[j]
                for c, g in zip(coeffs, gs):
                    if c:
                        acc -= _to_mpf(c) * g[j]
                worst = max(worst, abs(acc))
            return worst

        candidates = []
        for row in rows:
            c0 = row[0]
            if c0 == 0 or abs(c0) > max_den:
                continue
            tail = row[1 : m + 1]
            if tail and max(abs(c) for c in tail) > max_height:
                continue
            coeffs = tuple(Fraction(-c, c0) for c in tail)
            resid = residual_of(coeffs, vv, gg)
            candidates.append((resid, max(abs(c) for c in row[: m + 1]), coeffs))

        candidates.sort(key=lambda t: (t[0], t[1]))
        notes: List[str] = []
        best_seen: Optional[mp.mpf] = candidates[0][0] if candidates else None

        doubled = None  # (v, gens) at 2x digits, recomputed at most once per call
        for resid, _h, coeffs in candidates:
            if resid >= accept:
                break
            if recompute is not None:
                ctx2 = ctx.doubled()
                if doubled is None:
                    v2, gens2 = recompute(ctx2)
                    with ctx2.work():
                        doubled = ([mp.mpc(z) for z in v2],
                                   [[mp.mpc(z) for z in g] for g in gens2])
                with ctx2.work():
                    worst2 = residual_of(coeffs, *doubled)
                shrink = mp.mpf(10) ** (-mp.mpf(ctx.digits) / 4)
                floor2 = mp.mpf(10) ** (-(2 * ctx.digits) * mp.mpf(3) / 5) * scl
                if worst2 > resid * shrink + floor2:
                    notes.append(
                        "candidate %s rejected by 2x-precision amplification "
                        "(residual %s -> %s)"
                        % (
                            [str(c) for c in coeffs],
                            mp.nstr(resid, 8),
                            mp.nstr(worst2, 8),
                        )
                    )
                    continue
                return LatticeMembership(
                    "member", coeffs, resid, max_den, max_height, ctx.digits,
                    amplified=True, notes=tuple(notes),
                )
            return LatticeMembership(
                "member", coeffs, resid, max_den, max_height, ctx.digits,
                amplified=False, notes=tuple(notes),
            )

        return LatticeMembership(
            "no-relation-up-to", None, best_seen, max_den, max_height,
            ctx.digits, amplified=recompute is not None, notes=tuple(notes),
        )


def detect_tau_relation(
    tau1: BigComplex,
    tau2: BigComplex,
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
) -> Optional[Tuple[int, int, int, int]]:
    """Search for integers with A + B*tau1 - C*tau2 - D*tau1*tau2 = 0.

    Such a relation exhibits tau2 as the Moebius image (A + B*tau1)/(C +
    D*tau1) and is the lattice-level witness of an isogeny candidate. The
    returned tuple is primitive (gcd 1) with its first nonzero entry
    positive, and has been verified to the relation tolerance. None means
    the reduced search at the stated height found nothing.
    """

    with ctx.work():
        t1, t2 = mp.mpc(tau1), mp.mpc(tau2)
        if t1.imag <= 0 or t2.imag <= 0:
            raise ValueError("both tau values must have positive imaginary part")
        xs = [mp.mpc(1), t1, -t2, -t1 * t2]
        rel = integer_relation_complex(xs, max_height, ctx)
        if rel is None:
            return None
        g = 0
        for c in rel.coeffs:
            g = math.gcd(g, abs(c))
        coeffs = tuple(c // g for c in rel.coeffs)
        coeffs = _normalize_sign(coeffs)
        resid = abs(
            coeffs[0] + coeffs[1] * t1 - coeffs[2] * t2 - coeffs[3] * t1 * t2
        )
        scl = max(mp.mpf(1), abs(t1), abs(t2), abs(t1 * t2))
        if resid >= ctx.relation_tol * scl:
            raise PrecisionExhausted(
                "tau relation failed verification after normalization"
            )
        return coeffs
