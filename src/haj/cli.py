"""Command line front end: deterministic JSON verdicts over the evaluators.

Every subcommand is a thin adapter: it parses exact inputs (rationals as
strings, curves as g2/g3 pairs, rational functions as expressions in t),
hands them to the library at the configured precision, and prints one
verdict document. Reproducibility contract:

* identical inputs and config produce byte-identical output; verdict
  documents never carry timestamps, hostnames, or cache status;
* run metadata (elapsed time, cache events, versions) goes to a separate
  manifest file, written only when ``--manifest`` asks for one;
* computed verdicts exit 0, including negative searches such as
  NoRelationUpTo; schema errors exit 2 with the offending field path;
  evaluator failures exit 1 with a remediation hint.

Config knobs are shared by all subcommands and respond to HAJ_* environment
variables (HAJ_DIGITS, HAJ_MAX_HEIGHT, HAJ_MAX_DEN, HAJ_TORSION_BOUND,
HAJ_CACHE_DIR, HAJ_FORMAT). ``haj --stdio`` reads newline-delimited JSON
requests {"op": ..., "config": {...}, ...args} from stdin and answers one
compact document per line; ``--jobs N`` fans a batch out over a process
pool without reordering the responses.

Period lattices are the one expensive shared input, so they get a small
content-addressed cache: one JSON file per (g2, g3, digits, basis rule)
key holding the basis exactly (the binary mantissa and exponent of each
real and imaginary part) and a checksum, written atomically and
revalidated against the Eisenstein series on every load. A hit rebuilds
the computed basis bit for bit, so the cache is byte-transparent: a run
with a cache directory, on a write or on a hit, prints the bytes of a run
without one, whose lattices come from the process-wide pool
``elliptic.period_lattice``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import click
import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from . import __version__, qpoly
from .numkernel import (
    CircleAround,
    NonConvergence,
    NumKernelError,
    PrecisionCtx,
    QuadratureStall,
    TangencySuspected,
    _to_mpf,
    complex_to_json,
    poly_roots,
)
from .elliptic import (
    CurvePoint,
    DegenerateCurve,
    EllipticCurve,
    EllipticError,
    InversionMismatch,
    PeriodLatticeData,
    PeriodValidationFailed,
    PoleAtInput,
    _BASIS_RULE,
    _validate_basis,
    elliptic_log,
    is_torsion,
    period_lattice,
)
from .relations import (
    PrecisionExhausted,
    integer_relation_complex,
    lattice_membership,
)
from .cycles import (
    CurveRef,
    CycleError,
    PointSymbol,
    ZeroCycle,
    box_cycle,
    kummer_pushpull,
)
from .invariants import (
    BoxSpreadCycle,
    CutGrazing,
    InvariantError,
    MethodUnsupported,
    SpreadMap,
    StratificationOverflow,
    chi2_box,
    chi2_reduce,
    chi3_box,
    classify_case,
    psi2_nonvanishing,
)
from .milnor import (
    DegreeTooHigh,
    MilnorSymbolSum,
    Place,
    RationalFunc,
    ZeroEntry,
    indeterminacy_defect,
    regulator_eval,
    tame_symbol,
    weil_reciprocity_check,
)

SCHEMA = "haj/1"
MANIFEST_SCHEMA = "haj/1-manifest"

PRESET_NAMES = (
    "paper-14",
    "paper-16-rem3",
    "paper-16-classify",
    "paper-17",
    "paper-9-loops",
)


class SchemaError(Exception):
    """An input document failed validation at a specific field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# exception class -> remediation hint, most specific first
_HINTS: Tuple[Tuple[type, str], ...] = (
    (PrecisionExhausted, "increase --digits"),
    (QuadratureStall, "move the loop away from nearby zeros and poles"),
    (NonConvergence, "increase --digits"),
    (TangencySuspected, "move the loop away from the branch cut"),
    (CutGrazing, "perturb the loop center, radius, or path offsets"),
    (MethodUnsupported, "pick a method this spread supports"),
    (StratificationOverflow, "use lower-degree functions or smaller multipliers"),
    (DegreeTooHigh, "raise inputs.degree_cap (--degree-cap on weil) or use smaller factors"),
    (ZeroEntry, "symbol entries must be nonzero rational functions"),
    (PoleAtInput, "the input sits on a pole; choose another point"),
    (InversionMismatch, "increase --digits"),
    (PeriodValidationFailed, "clear the period cache or increase --digits"),
    (DegenerateCurve, "the discriminant vanishes; choose other g2, g3"),
)

_MODULE_ERRORS = (
    NumKernelError,
    EllipticError,
    CycleError,
    ValueError,
    ZeroDivisionError,
)


def _hint_for(exc: BaseException) -> Optional[str]:
    for klass, hint in _HINTS:
        if isinstance(exc, klass):
            return hint
    return None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Shared numeric knobs; validated once, echoed in every verdict."""

    digits: int = 128
    max_height: int = 10**4
    max_den: int = 10**3
    torsion_bound: int = 16
    cache_dir: Optional[pathlib.Path] = None
    output_format: str = "json"

    def __post_init__(self) -> None:
        if int(self.digits) < 32:
            raise SchemaError("config.digits", "must be at least 32")
        for name in ("max_height", "max_den", "torsion_bound"):
            if int(getattr(self, name)) < 1:
                raise SchemaError(f"config.{name}", "must be positive")
        if self.output_format not in ("json", "text"):
            raise SchemaError("config.output_format", "must be json or text")

    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(int(self.digits))

    def public(self) -> dict:
        # only the knobs that shape the verdict; cache location and output
        # format must not change the bytes of the document
        return {
            "digits": int(self.digits),
            "max_height": int(self.max_height),
            "max_den": int(self.max_den),
            "torsion_bound": int(self.torsion_bound),
        }

    @classmethod
    def from_mapping(cls, doc: dict, base: Optional["RunConfig"] = None) -> "RunConfig":
        base = base or cls()
        known = {"digits", "max_height", "max_den", "torsion_bound", "cache_dir"}
        for key in doc:
            if key not in known:
                raise SchemaError(f"config.{key}", "unknown config field")
        cache = doc.get("cache_dir", base.cache_dir)
        return cls(
            digits=_as_int(doc.get("digits", base.digits), "config.digits"),
            max_height=_as_int(doc.get("max_height", base.max_height), "config.max_height"),
            max_den=_as_int(doc.get("max_den", base.max_den), "config.max_den"),
            torsion_bound=_as_int(
                doc.get("torsion_bound", base.torsion_bound), "config.torsion_bound"
            ),
            cache_dir=pathlib.Path(cache) if cache is not None else None,
            output_format=base.output_format,
        )


# ---------------------------------------------------------------------------
# Input parsing (schema errors carry field paths)
# ---------------------------------------------------------------------------


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return doc[key]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(path, "expected an integer")
    try:
        return int(v)
    except ValueError:
        raise SchemaError(path, f"expected an integer, got {v!r}") from None


def _as_frac(v, path: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise SchemaError(path, "expected an exact rational (use a string)")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(path, f"expected a rational like '3/4', got {v!r}") from None


def _curve_from(doc: dict, path: str) -> EllipticCurve:
    g2 = _as_frac(_need(doc, "g2", path), f"{path}.g2")
    g3 = _as_frac(_need(doc, "g3", path), f"{path}.g3")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"{path}.label", "expected a string")
    return EllipticCurve(g2, g3, label=label)


def _point_from(doc, path: str) -> CurvePoint:
    if doc == "infinity":
        return CurvePoint.infinity()
    x = _as_frac(_need(doc, "x", path), f"{path}.x")
    y = _as_frac(_need(doc, "y", path), f"{path}.y")
    return CurvePoint.affine(x, y)


def _point_on_curve(doc, curve: EllipticCurve, path: str) -> CurvePoint:
    p = _point_from(doc, path)
    if not curve.contains(p):
        raise SchemaError(path, "the point does not satisfy the curve equation")
    return p


def _gauss_from(v, path: str) -> Tuple[Fraction, Fraction]:
    """A rational or Gaussian-rational coefficient: '1/2' or ['re', 'im']."""
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise SchemaError(path, "expected [re, im]")
        return _as_frac(v[0], f"{path}[0]"), _as_frac(v[1], f"{path}[1]")
    return _as_frac(v, path), Fraction(0)


def _gauss_mpc(pair: Tuple[Fraction, Fraction]) -> mp.mpc:
    return mp.mpc(_to_mpf(pair[0]), _to_mpf(pair[1]))


def _decimal_from(v, path: str):
    """A decimal literal for numeric seeds; exactness is not promised."""
    if isinstance(v, (int, str)):
        try:
            return mp.mpf(v)
        except ValueError:
            raise SchemaError(path, f"expected a decimal literal, got {v!r}") from None
    raise SchemaError(path, "expected a decimal literal string")


def _complex_from(v, path: str) -> mp.mpc:
    if isinstance(v, dict):
        re = _decimal_from(_need(v, "re", path), f"{path}.re")
        im = _decimal_from(v.get("im", "0"), f"{path}.im")
        return mp.mpc(re, im)
    if isinstance(v, (int, str)):
        try:
            return mp.mpc(_to_mpf(Fraction(v)))
        except (ValueError, ZeroDivisionError):
            return mp.mpc(_decimal_from(v, path))
    raise SchemaError(path, "expected a number, 'a/b', or {re, im}")


def _rf_from(text, path: str) -> RationalFunc:
    if not isinstance(text, str):
        raise SchemaError(path, "expected a rational-function expression in t")
    try:
        return RationalFunc.parse(text)
    except ValueError as exc:
        raise SchemaError(path, f"cannot parse {text!r}: {exc}") from None


def _offset_from(v, path: str) -> Tuple[Fraction, Fraction]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(path, "expected [eps, delta]")
    return _as_frac(v[0], f"{path}[0]"), _as_frac(v[1], f"{path}[1]")


# ---------------------------------------------------------------------------
# Period cache
# ---------------------------------------------------------------------------


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cache_key(curve: EllipticCurve, digits: int) -> dict:
    # an entry written under another basis rule holds a basis that passes
    # revalidation and still differs from the computed one: never serve it
    return {"g2": str(curve.g2), "g3": str(curve.g3), "digits": int(digits), "basis": _BASIS_RULE}


def _man_exp(x: mp.mpf) -> list:
    sign, man, exp, _ = x._mpf_
    return [-man if sign else man, exp]


def _exact_mpf(pair) -> mp.mpf:
    man, exp = pair
    if type(man) is not int or type(exp) is not int:
        raise ValueError("expected an integer mantissa and exponent")
    return mp.make_mpf(from_man_exp(man, exp))


_BASIS_NAMES = ("omega_alpha", "omega_beta")


@dataclasses.dataclass(frozen=True)
class PeriodCacheEntry:
    """One cached period basis, keyed by (g2, g3, digits, basis rule) and
    checksummed.

    The payload holds each real and imaginary part of the basis as its
    signed binary mantissa and exponent, so loading rebuilds the computed
    basis bit for bit. Loading verifies the checksum and recomputes the
    Eisenstein invariants from the stored basis; a stale, corrupted or
    differently encoded entry (such as a decimal one) is discarded, never
    trusted.
    """

    key: dict
    payload: dict
    checksum: str

    @staticmethod
    def _digest(key: dict, payload: dict) -> str:
        import hashlib

        body = _canonical_json({"key": key, "payload": payload})
        return hashlib.sha256(body.encode("ascii")).hexdigest()

    @classmethod
    def build(cls, curve: EllipticCurve, lat: PeriodLatticeData, digits: int) -> "PeriodCacheEntry":
        key = _cache_key(curve, digits)
        payload = {
            name: {"re": _man_exp(w.real), "im": _man_exp(w.imag)}
            for name, w in zip(_BASIS_NAMES, (lat.omega_alpha, lat.omega_beta))
        }
        return cls(key=key, payload=payload, checksum=cls._digest(key, payload))

    @classmethod
    def from_json(cls, doc: dict) -> "PeriodCacheEntry":
        return cls(key=dict(doc["key"]), payload=dict(doc["payload"]), checksum=doc["checksum"])

    def to_json(self) -> dict:
        return {"schema": SCHEMA, "key": self.key, "payload": self.payload, "checksum": self.checksum}

    def verify(self) -> bool:
        return self.checksum == self._digest(self.key, self.payload)

    def lattice(self, curve: EllipticCurve, ctx: PrecisionCtx) -> PeriodLatticeData:
        with ctx.work():
            wa, wb = (
                mp.mpc(_exact_mpf(self.payload[name]["re"]), _exact_mpf(self.payload[name]["im"]))
                for name in _BASIS_NAMES
            )
            return PeriodLatticeData(curve, wa, wb, ctx.digits)

    def revalidate(self, curve: EllipticCurve, ctx: PrecisionCtx) -> bool:
        """Recompute g2, g3 from the stored basis: the check compute_periods runs."""
        try:
            lat = self.lattice(curve, ctx)
        except (KeyError, TypeError, ValueError):
            return False
        return _validate_basis(curve, lat.omega_alpha, lat.omega_beta, ctx)


def _cache_path(cache_dir: pathlib.Path, key: dict) -> pathlib.Path:
    import hashlib

    tag = hashlib.sha256(_canonical_json(key).encode("ascii")).hexdigest()[:24]
    return cache_dir / f"periods-{tag}.json"


def _atomic_write_json(path: pathlib.Path, doc: dict) -> None:
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Session:
    """Per-run lattice pool: memoizes period bases and tracks cache events.

    The memo exists for the cache path's events: with a cache directory, a
    request records one cache event per (g2, g3, digits) it touches. The
    process-wide pool lives in ``elliptic.period_lattice``; without a cache
    directory the lattice comes from there, and so does a cache miss, which
    returns the computed lattice as it writes the entry.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.events: List[str] = []
        self._pool: Dict[Tuple[Fraction, Fraction, int], PeriodLatticeData] = {}

    def lattice(self, curve: EllipticCurve, ctx: PrecisionCtx) -> PeriodLatticeData:
        key = (curve.g2, curve.g3, ctx.digits)
        if key in self._pool:
            return self._pool[key]
        lat = self._load_or_compute(curve, ctx)
        self._pool[key] = lat
        return lat

    def _load_or_compute(self, curve: EllipticCurve, ctx: PrecisionCtx) -> PeriodLatticeData:
        if self.cfg.cache_dir is None:
            return period_lattice(curve, ctx)
        key = _cache_key(curve, ctx.digits)
        path = _cache_path(self.cfg.cache_dir, key)
        if path.exists():
            try:
                entry = PeriodCacheEntry.from_json(json.loads(path.read_text()))
            except (KeyError, TypeError, ValueError):
                entry = None
            if entry is not None and entry.key == key and entry.verify() and entry.revalidate(curve, ctx):
                self.events.append(f"cache-hit {path.name}")
                return entry.lattice(curve, ctx)
            self.events.append(f"cache-rejected {path.name}")
        lat = period_lattice(curve, ctx)
        entry = PeriodCacheEntry.build(curve, lat, ctx.digits)
        _atomic_write_json(path, entry.to_json())
        self.events.append(f"cache-write {path.name}")
        return lat


# ---------------------------------------------------------------------------
# Spread-map assembly
# ---------------------------------------------------------------------------


def _multiplier_from(v, path: str) -> Tuple[int, int]:
    if isinstance(v, bool):
        raise SchemaError(path, "expected an integer or [re, im] pair")
    if isinstance(v, int):
        return (v, 0)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return (_as_int(v[0], f"{path}[0]"), _as_int(v[1], f"{path}[1]"))
    raise SchemaError(path, "expected an integer or [re, im] pair")


def _translation_from(doc, curve: EllipticCurve, lat: PeriodLatticeData,
                      ctx: PrecisionCtx, path: str):
    """Resolve a translation lift against the target lattice.

    Forms: a rational string, a {re, im} decimal literal, {"point": ...,
    "sign": +-1} for the elliptic log of a rational point, or
    {"periods": [ca, cb]} for ca*omega_alpha + cb*omega_beta with rational
    or Gaussian-rational coefficients.
    """
    if doc is None:
        return mp.mpc(0)
    if isinstance(doc, (int, str)):
        return mp.mpc(_to_mpf(_as_frac(doc, path)))
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a rational, a point, periods, or re/im")
    if "point" in doc:
        sign = doc.get("sign", 1)
        if sign not in (1, -1):
            raise SchemaError(f"{path}.sign", "expected 1 or -1")
        p = _point_on_curve(doc["point"], curve, f"{path}.point")
        return sign * elliptic_log(p, curve, lat, ctx)
    if "periods" in doc:
        pair = doc["periods"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"{path}.periods", "expected [ca, cb]")
        ca = _gauss_mpc(_gauss_from(pair[0], f"{path}.periods[0]"))
        cb = _gauss_mpc(_gauss_from(pair[1], f"{path}.periods[1]"))
        return ca * lat.omega_alpha + cb * lat.omega_beta
    if "re" in doc:
        return _complex_from(doc, path)
    raise SchemaError(path, "expected 'point', 'periods', or {re, im}")


def _spread_from(args: dict, session: Session, ctx: PrecisionCtx, want_maps: int) -> BoxSpreadCycle:
    src = _curve_from(_need(args, "source", "inputs"), "inputs.source")
    lat_src = session.lattice(src, ctx)
    maps_doc = _need(args, "maps", "inputs")
    if not isinstance(maps_doc, list) or len(maps_doc) != want_maps:
        raise SchemaError("inputs.maps", f"expected a list of {want_maps} maps")
    built = []
    with ctx.work():
        for i, m in enumerate(maps_doc):
            path = f"inputs.maps[{i}]"
            if not isinstance(m, dict):
                raise SchemaError(path, "expected a map object")
            target = _curve_from(m["target"], f"{path}.target") if "target" in m else src
            lat_t = session.lattice(target, ctx)
            mult = _multiplier_from(_need(m, "multiplier", path), f"{path}.multiplier")
            mult2 = _multiplier_from(m.get("multiplier2", 0), f"{path}.multiplier2")
            trans = _translation_from(m.get("translation"), target, lat_t, ctx, f"{path}.translation")
            built.append(SpreadMap.affine(target, lat_t, mult, trans, multiplier2=mult2))
        return BoxSpreadCycle(src, lat_src, tuple(built))


def _first_map_is_identity(args: dict) -> bool:
    maps = args.get("maps")
    if not isinstance(maps, list) or not maps or not isinstance(maps[0], dict):
        return False
    m = maps[0]
    trans = m.get("translation")
    plain = trans is None or (isinstance(trans, (int, str)) and Fraction(str(trans)) == 0)
    return (
        _multiplier_from(m.get("multiplier", 0), "inputs.maps[0].multiplier") == (1, 0)
        and _multiplier_from(m.get("multiplier2", 0), "inputs.maps[0].multiplier2") == (0, 0)
        and "target" not in m
        and plain
    )


_VERDICT_NAMES = {"member": "Member", "no-relation-up-to": "NoRelationUpTo"}


# ---------------------------------------------------------------------------
# Operations (shared by subcommands and --stdio)
# ---------------------------------------------------------------------------


def op_periods(args: dict, cfg: RunConfig, session: Session) -> dict:
    curve = _curve_from(_need(args, "curve", "inputs"), "inputs.curve")
    ctx = cfg.ctx()
    lat = session.lattice(curve, ctx)
    return {
        "curve": curve.to_json(),
        "digits": cfg.digits,
        "omega_alpha": complex_to_json(lat.omega_alpha, ctx),
        "omega_beta": complex_to_json(lat.omega_beta, ctx),
        "tau": complex_to_json(lat.tau, ctx),
    }


def op_ellog(args: dict, cfg: RunConfig, session: Session) -> dict:
    curve = _curve_from(_need(args, "curve", "inputs"), "inputs.curve")
    p = _point_on_curve(_need(args, "point", "inputs"), curve, "inputs.point")
    ctx = cfg.ctx()
    lat = session.lattice(curve, ctx)
    xi = elliptic_log(p, curve, lat, ctx)
    with ctx.work():
        s, t = lat.coords(xi)
        coords = {"s": mp.nstr(s, ctx.digits), "t": mp.nstr(t, ctx.digits)}
    return {
        "curve": curve.to_json(),
        "point": p.to_json(),
        "digits": cfg.digits,
        "xi": complex_to_json(xi, ctx),
        "lattice_coords": coords,
    }


def op_torsion(args: dict, cfg: RunConfig, session: Session) -> dict:
    curve = _curve_from(_need(args, "curve", "inputs"), "inputs.curve")
    p = _point_on_curve(_need(args, "point", "inputs"), curve, "inputs.point")
    res = is_torsion(p, curve, bound=cfg.torsion_bound, ctx=cfg.ctx())
    doc = {
        "curve": curve.to_json(),
        "point": p.to_json(),
        "bound": res.bound,
        "verdict": "Torsion" if res.kind == "torsion" else "NotTorsionUpTo",
        "order": res.order,
    }
    if res.log_evidence is not None:
        doc["log_evidence"] = res.log_evidence.to_json()
    return doc


def op_chi2(args: dict, cfg: RunConfig, session: Session) -> dict:
    method = args.get("method")
    if method is None:
        method = "Both" if _first_map_is_identity(args) else "PathIntegral"
    offset = _offset_from(args.get("offset", ["-1/8", "-1/8"]), "inputs.offset")
    scale = _as_frac(args.get("scale", 1), "inputs.scale")
    reduce_flag = args.get("reduce", True)
    if not isinstance(reduce_flag, bool):
        raise SchemaError("inputs.reduce", "expected true or false")
    ctx = cfg.ctx()

    def build(ctx2: PrecisionCtx):
        spread = _spread_from(args, session, ctx2, want_maps=2)
        return chi2_box(spread, method=method, ctx=ctx2, path_offset=offset)

    value = build(ctx)
    doc = {"chi2": value.to_json(ctx)}
    if reduce_flag:
        membership = chi2_reduce(
            value,
            scale=scale,
            max_den=cfg.max_den,
            max_height=cfg.max_height,
            ctx=ctx,
            recompute=build,
        )
        doc["membership"] = membership.to_json()
        doc["scale"] = str(scale)
        doc["verdict"] = _VERDICT_NAMES[membership.verdict]
    return doc


def op_chi3(args: dict, cfg: RunConfig, session: Session) -> dict:
    offsets_doc = args.get("offsets", [["-1/8", "-1/8"], ["-1/8", "-1/8"]])
    if not isinstance(offsets_doc, (list, tuple)) or len(offsets_doc) != 2:
        raise SchemaError("inputs.offsets", "expected [[e1, d1], [e2, d2]]")
    offsets = (
        _offset_from(offsets_doc[0], "inputs.offsets[0]"),
        _offset_from(offsets_doc[1], "inputs.offsets[1]"),
    )
    reduce_flag = args.get("reduce", False)
    if not isinstance(reduce_flag, bool):
        raise SchemaError("inputs.reduce", "expected true or false")
    ctx = cfg.ctx()
    spread = _spread_from(args, session, ctx, want_maps=3)
    value = chi3_box(spread, ctx=ctx, offsets=offsets)
    doc = {"chi3": value.to_json(ctx), "verdict": "Evaluated"}
    if reduce_flag:
        with ctx.work():
            gens = [[g] for g in value.lattice_gens]
            memberships = {}
            for name, component in (("diag", value.value_diag), ("mixed", value.value_mixed)):
                memberships[name] = lattice_membership(
                    [component], gens, max_den=cfg.max_den, max_height=cfg.max_height, ctx=ctx
                )
        doc["membership"] = {k: m.to_json() for k, m in memberships.items()}
        doc["verdict"] = (
            "Member"
            if all(m.is_member for m in memberships.values())
            else "NoRelationUpTo"
        )
    return doc


def op_classify(args: dict, cfg: RunConfig, session: Session) -> dict:
    if "pairs" in args:
        pairs_doc = args["pairs"]
        if not isinstance(pairs_doc, list) or not pairs_doc:
            raise SchemaError("inputs.pairs", "expected a nonempty list of curve pairs")
    else:
        pairs_doc = [[_need(args, "first", "inputs"), _need(args, "second", "inputs")]]
    max_height = _as_int(args.get("max_height", cfg.max_height), "inputs.max_height")
    ctx = cfg.ctx()
    out = []
    for i, pair in enumerate(pairs_doc):
        path = f"inputs.pairs[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(path, "expected [curve, curve]")
        c1 = _curve_from(pair[0], f"{path}[0]")
        c2 = _curve_from(pair[1], f"{path}[1]")
        verdict = classify_case(c1, c2, max_height=max_height, ctx=ctx)
        out.append(
            {"first": c1.to_json(), "second": c2.to_json(), "classification": verdict.to_json()}
        )
    doc = {"pairs": out, "cases": [p["classification"]["verdict"] for p in out]}
    if len(out) == 1:
        doc["verdict"] = out[0]["classification"]["verdict"]
    return doc


def op_psi2(args: dict, cfg: RunConfig, session: Session) -> dict:
    curve = _curve_from(_need(args, "curve", "inputs"), "inputs.curve")
    label = curve.label or "E"
    ref = CurveRef(label, curve)
    base = PointSymbol.base(ref)
    marker_pt = _point_on_curve(_need(args, "marker", "inputs"), curve, "inputs.marker")
    marker = PointSymbol.named(ref, args.get("marker_name", "p"), marker_pt)
    if "terms" in args:
        terms_doc = args["terms"]
        if not isinstance(terms_doc, list) or not terms_doc:
            raise SchemaError("inputs.terms", "expected a nonempty list")
        mapping: Dict[tuple, Fraction] = {}
        for i, term in enumerate(terms_doc):
            path = f"inputs.terms[{i}]"
            if not isinstance(term, dict):
                raise SchemaError(path, "expected a term object")
            coeff = _as_frac(term.get("coeff", 1), f"{path}.coeff")
            raw = _need(term, "point", path)
            if raw == "base":
                sym = base
            else:
                pt = _point_on_curve(raw, curve, f"{path}.point")
                sym = PointSymbol.named(ref, f"q{i}", pt)
            mapping[(sym,)] = mapping.get((sym,), Fraction(0)) + coeff
        w = ZeroCycle.from_terms(1, mapping)
    else:
        w = ZeroCycle.from_terms(1, {(marker,): Fraction(1), (base,): Fraction(-1)})
    decision = psi2_nonvanishing(marker, w, bound=cfg.torsion_bound, ctx=cfg.ctx())
    return {
        "curve": curve.to_json(),
        "cycle": w.to_json(),
        "decision": decision.to_json(),
        "verdict": decision.outcome,
    }


def _center_from(args: dict, ctx: PrecisionCtx) -> mp.mpc:
    center_doc = _need(args, "center", "inputs")
    with ctx.work():
        if isinstance(center_doc, dict) and "root_of" in center_doc:
            poly = _rf_from(center_doc["root_of"], "inputs.center.root_of")
            if poly.denominator != (Fraction(1),):
                raise SchemaError("inputs.center.root_of", "expected a polynomial in t")
            if len(poly.numerator) < 2:
                raise SchemaError("inputs.center.root_of", "expected a nonconstant polynomial")
            # p / gcd(p, p') has the same roots as p, each simple, so that a
            # multiple root costs no doubled-precision retry in the root finder;
            # it is scaled by 1/lc(p'), as the numerator of p / p' in lowest terms
            p = poly.numerator
            dp = qpoly.derivative(p)
            part = qpoly.scale(qpoly.quo_rem(p, qpoly.gcd(p, dp))[0], 1 / dp[-1])
            seed = _complex_from(_need(center_doc, "near", "inputs.center"), "inputs.center.near")
            return min(poly_roots(part, ctx), key=lambda x: abs(x - seed))
        return _complex_from(center_doc, "inputs.center")


def _circle(args: dict, center: mp.mpc, radius: Fraction, ctx: PrecisionCtx) -> CircleAround:
    if not radius > 0:
        raise SchemaError("inputs.radius", "must be positive")
    orientation = args.get("orientation", 1)
    if orientation not in (1, -1):
        raise SchemaError("inputs.orientation", "expected 1 or -1")
    with ctx.work():
        return CircleAround(center, _to_mpf(radius), orientation)


def _loop_from(args: dict, ctx: PrecisionCtx) -> CircleAround:
    center = _center_from(args, ctx)
    radius = _as_frac(_need(args, "radius", "inputs"), "inputs.radius")
    return _circle(args, center, radius, ctx)


def _symbol_pairs_from(args: dict) -> MilnorSymbolSum:
    if "pairs" in args:
        pairs_doc = args["pairs"]
        if not isinstance(pairs_doc, list) or not pairs_doc:
            raise SchemaError("inputs.pairs", "expected a nonempty list")
        acc = None
        for i, entry in enumerate(pairs_doc):
            path = f"inputs.pairs[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(path, "expected {f, g, coeff}")
            f = _rf_from(_need(entry, "f", path), f"{path}.f")
            g = _rf_from(_need(entry, "g", path), f"{path}.g")
            coeff = _as_frac(entry.get("coeff", 1), f"{path}.coeff")
            term = MilnorSymbolSum.symbol(f, g, coeff=coeff)
            acc = term if acc is None else acc + term
        return acc
    f = _rf_from(_need(args, "f", "inputs"), "inputs.f")
    g = _rf_from(_need(args, "g", "inputs"), "inputs.g")
    return MilnorSymbolSum.symbol(f, g)


def op_milnor_reg(args: dict, cfg: RunConfig, session: Session) -> dict:
    symbol = _symbol_pairs_from(args)
    ctx = cfg.ctx()
    if "radii" in args:
        radii_doc = args["radii"]
        if not isinstance(radii_doc, list) or not radii_doc:
            raise SchemaError("inputs.radii", "expected a nonempty list of radii")
        g = _rf_from(_need(args, "g", "inputs"), "inputs.g")
        radii = [_as_frac(rdoc, f"inputs.radii[{i}]") for i, rdoc in enumerate(radii_doc)]
        center = _center_from(args, ctx)
        loops = []
        worst_ok = True
        for radius in radii:
            loop = _circle(args, center, radius, ctx)
            rv = regulator_eval(symbol, loop, ctx, max_den=cfg.max_den, max_height=cfg.max_height)
            with ctx.work():
                target = 2j * mp.pi * mp.log(g.eval_mpc(center))
                defect, q = indeterminacy_defect(rv.value + target, ctx)
                r = loop.radius
                envelope = r * abs(mp.log(r))
                within = bool(defect <= envelope)
            worst_ok = worst_ok and within
            loops.append(
                {
                    "radius": str(radius),
                    "regulator": rv.to_json(),
                    "shrink": {
                        "defect": mp.nstr(defect, 12),
                        "snap": "%d/%d" % (q.numerator, q.denominator),
                        "envelope": mp.nstr(envelope, 12),
                        "within_envelope": within,
                    },
                }
            )
        return {
            "loops": loops,
            "verdict": "WithinEnvelope" if worst_ok else "ExceedsEnvelope",
        }
    loop = _loop_from(args, ctx)
    rv = regulator_eval(symbol, loop, ctx, max_den=cfg.max_den, max_height=cfg.max_height)
    return {
        "regulator": rv.to_json(),
        "verdict": _VERDICT_NAMES[rv.indeterminacy.verdict],
    }


def _place_from(text, path: str) -> Place:
    if isinstance(text, str) and text.strip().lower() in ("inf", "infinity", "oo"):
        return Place.infinity()
    if isinstance(text, (int, str)):
        try:
            return Place.rational(Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass
    poly = _rf_from(text, path)
    if poly.denominator != (Fraction(1),) or len(poly.numerator) < 2:
        raise SchemaError(path, "expected a rational number or an irreducible polynomial in t")
    lead = poly.numerator[-1]
    coeffs = tuple(c / lead for c in poly.numerator)
    try:
        return Place.algebraic(coeffs)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def op_tame(args: dict, cfg: RunConfig, session: Session) -> dict:
    f = _rf_from(_need(args, "f", "inputs"), "inputs.f")
    g = _rf_from(_need(args, "g", "inputs"), "inputs.g")
    place = _place_from(_need(args, "place", "inputs"), "inputs.place")
    value = tame_symbol((f, g), place)
    doc = {
        "f": str(f),
        "g": str(g),
        "place": place.describe(),
    }
    if isinstance(value, Fraction):
        doc["value"] = str(value)
    else:
        doc["value"] = {
            "residue": [str(c) for c in value],
            "modulus": [str(c) for c in place.minpoly],
        }
    return doc


def _random_rf(rng: random.Random, max_deg: int) -> RationalFunc:
    def poly() -> tuple:
        deg = rng.randint(0, max_deg)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([c for c in range(-5, 6) if c])))
        return tuple(coeffs)

    while True:
        num = poly()
        den = poly()
        f = RationalFunc(num, den)
        if not f.is_zero and not (f.is_constant and f.constant_value() == 1):
            return f


def op_weil(args: dict, cfg: RunConfig, session: Session) -> dict:
    cap = _as_int(args.get("degree_cap", 6), "inputs.degree_cap")
    if "random" in args:
        trials = _as_int(args["random"], "inputs.random")
        if trials < 1:
            raise SchemaError("inputs.random", "must be positive")
        seed = _as_int(args.get("seed", 0), "inputs.seed")
        max_deg = _as_int(args.get("max_deg", 4), "inputs.max_deg")
        rng = random.Random(seed)
        checks = []
        violations = []
        for _ in range(trials):
            f = _random_rf(rng, max_deg)
            g = _random_rf(rng, max_deg)
            report = weil_reciprocity_check((f, g), degree_cap=cap)
            checks.append({"f": str(f), "g": str(g), "product": str(report.product)})
            if not report.holds:
                violations.append(checks[-1])
        return {
            "verdict": "Holds" if not violations else "Violated",
            "trials": trials,
            "seed": seed,
            "max_degree": max_deg,
            "checks": checks,
            "violations": violations,
        }
    f = _rf_from(_need(args, "f", "inputs"), "inputs.f")
    g = _rf_from(_need(args, "g", "inputs"), "inputs.g")
    report = weil_reciprocity_check((f, g), degree_cap=cap)
    doc = report.to_json()
    doc["verdict"] = doc.pop("outcome")
    return doc


def op_kummer_check(args: dict, cfg: RunConfig, session: Session) -> dict:
    curves_doc = _need(args, "curves", "inputs")
    if not isinstance(curves_doc, (list, tuple)) or len(curves_doc) != 2:
        raise SchemaError("inputs.curves", "expected [curve, curve]")
    c1 = _curve_from(curves_doc[0], "inputs.curves[0]")
    c2 = _curve_from(curves_doc[1], "inputs.curves[1]")
    l1 = c1.label or "F1"
    l2 = c2.label or "F2"
    if l1 == l2:
        l2 = l2 + "'"
    ref1 = CurveRef(l1, c1)
    ref2 = CurveRef(l2, c2)
    p = _point_on_curve(_need(args, "p", "inputs"), c1, "inputs.p")
    xi = _point_on_curve(_need(args, "xi", "inputs"), c2, "inputs.xi")
    ps = PointSymbol.named(ref1, "p", p)
    xs = PointSymbol.named(ref2, "xi", xi)
    bases = [PointSymbol.base(ref1), PointSymbol.base(ref2)]
    cycle = box_cycle([ps, xs], bases)
    pushed = kummer_pushpull(cycle)
    mirrored = box_cycle([PointSymbol.neg(ps), PointSymbol.neg(xs)], bases)
    expected = cycle + mirrored
    return {
        "cycle": cycle.to_json(),
        "pushpull": pushed.to_json(),
        "expected": expected.to_json(),
        "verdict": "Holds" if pushed == expected else "Fails",
        "exact": True,
    }


def op_relation(args: dict, cfg: RunConfig, session: Session) -> dict:
    ctx = cfg.ctx()
    if "v" in args or "gens" in args:
        v_doc = _need(args, "v", "inputs")
        gens_doc = _need(args, "gens", "inputs")
        if not isinstance(v_doc, list) or not v_doc:
            raise SchemaError("inputs.v", "expected a nonempty list")
        if not isinstance(gens_doc, list) or not gens_doc:
            raise SchemaError("inputs.gens", "expected a nonempty list of vectors")
        with ctx.work():
            v = [_complex_from(z, f"inputs.v[{i}]") for i, z in enumerate(v_doc)]
            gens = []
            for i, row in enumerate(gens_doc):
                if not isinstance(row, list):
                    raise SchemaError(f"inputs.gens[{i}]", "expected a vector")
                gens.append(
                    [_complex_from(z, f"inputs.gens[{i}][{j}]") for j, z in enumerate(row)]
                )
            membership = lattice_membership(
                v, gens, max_den=cfg.max_den, max_height=cfg.max_height, ctx=ctx
            )
        return {
            "membership": membership.to_json(),
            "verdict": _VERDICT_NAMES[membership.verdict],
        }
    xs_doc = _need(args, "xs", "inputs")
    if not isinstance(xs_doc, list) or len(xs_doc) < 2:
        raise SchemaError("inputs.xs", "expected at least two values")
    with ctx.work():
        xs = [_complex_from(z, f"inputs.xs[{i}]") for i, z in enumerate(xs_doc)]
        rel = integer_relation_complex(xs, cfg.max_height, ctx)
        if rel is None:
            return {"relation": None, "verdict": "NoRelationUpTo", "height": cfg.max_height}
        return {"relation": rel.to_json(ctx), "verdict": "RelationFound"}


_OPS: Dict[str, Callable[[dict, RunConfig, Session], dict]] = {
    "periods": op_periods,
    "ellog": op_ellog,
    "torsion": op_torsion,
    "chi2": op_chi2,
    "chi3": op_chi3,
    "classify": op_classify,
    "psi2": op_psi2,
    "milnor-reg": op_milnor_reg,
    "tame": op_tame,
    "weil": op_weil,
    "kummer-check": op_kummer_check,
    "relation": op_relation,
}


# ---------------------------------------------------------------------------
# Execution envelope and rendering
# ---------------------------------------------------------------------------


def _error_doc(command: Optional[str], exc: BaseException) -> dict:
    """The document of a failed request: a schema error names its field, an
    evaluator failure its type and remediation hint."""
    if isinstance(exc, SchemaError):
        error = {"type": "schema", "field": exc.path, "message": exc.message}
    else:
        error = {"type": type(exc).__name__, "message": str(exc)}
        hint = _hint_for(exc)
        if hint is not None:
            error["hint"] = hint
    doc = {"schema": SCHEMA}
    if command is not None:
        doc["command"] = command
    doc["error"] = error
    return doc


def run_op(command: str, cfg: RunConfig, args: dict, session: Optional[Session] = None):
    """Run one operation; returns (document, exit_code, session)."""
    session = session or Session(cfg)
    if command not in _OPS:
        return _error_doc(command, SchemaError("op", f"unknown operation {command!r}")), 2, session
    try:
        result = _OPS[command](args, cfg, session)
        doc = {
            "schema": SCHEMA,
            "command": command,
            "config": cfg.public(),
            "inputs": args,
            "result": result,
        }
        return doc, 0, session
    except SchemaError as exc:
        return _error_doc(command, exc), 2, session
    except _MODULE_ERRORS as exc:
        return _error_doc(command, exc), 1, session


def _text_lines(doc, prefix: str = "") -> List[str]:
    if isinstance(doc, dict):
        lines: List[str] = []
        for key in sorted(doc):
            head = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_text_lines(doc[key], head))
        return lines
    if isinstance(doc, (list, tuple)):
        lines = []
        for i, item in enumerate(doc):
            lines.extend(_text_lines(item, f"{prefix}[{i}]"))
        return lines
    if doc is None:
        value = "null"
    elif isinstance(doc, bool):
        value = "true" if doc else "false"
    else:
        value = str(doc)
    return [f"{prefix} = {value}"]


def render_doc(doc: dict, output_format: str) -> str:
    if output_format == "text":
        return "\n".join(_text_lines(doc)) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_manifest(path: pathlib.Path, command: str, code: int,
                    elapsed: float, session: Session) -> None:
    import datetime

    doc = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "argv": sys.argv[1:],
        "exit_code": code,
        "elapsed_seconds": round(elapsed, 3),
        "cache_events": list(session.events),
        "versions": {
            "haj": __version__,
            "mpmath": mpmath.__version__,
        },
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _atomic_write_json(path, doc)


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise SchemaError("preset", f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    text = resources.files("haj").joinpath("presets", f"{name}.json").read_text()
    return json.loads(text)


def _load_args(command: str, preset: Optional[str], input_path: Optional[str]) -> dict:
    if preset is not None and input_path is not None:
        raise SchemaError("inputs", "give either --preset or --input, not both")
    if preset is not None:
        doc = load_preset(preset)
    elif input_path is not None:
        try:
            doc = json.loads(pathlib.Path(input_path).read_text())
        except FileNotFoundError:
            raise SchemaError("input", f"no such file: {input_path}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError("input", f"invalid JSON: {exc}") from None
    else:
        return {}
    if not isinstance(doc, dict):
        raise SchemaError("input", "expected a JSON object")
    op = doc.pop("op", command)
    if op != command:
        raise SchemaError("input.op", f"document is for {op!r}, not {command!r}")
    doc.pop("note", None)
    return doc


def _finish(command: str, cfg_kwargs: dict, args_builder: Callable[[], dict]) -> None:
    """Shared tail of every subcommand: build args, run, render, exit."""
    manifest = cfg_kwargs.pop("manifest", None)
    started = time.monotonic()
    session = None
    try:
        cfg = RunConfig(**cfg_kwargs)
        args = args_builder()
    except SchemaError as exc:
        doc = _error_doc(command, exc)
        code = 2
        fmt = cfg_kwargs.get("output_format", "json")
        fmt = fmt if fmt in ("json", "text") else "json"
        click.echo(render_doc(doc, fmt), nl=False)
        if manifest is not None:
            _write_manifest(manifest, command, code, time.monotonic() - started, Session(RunConfig()))
        sys.exit(code)
    doc, code, session = run_op(command, cfg, args)
    click.echo(render_doc(doc, cfg.output_format), nl=False)
    if manifest is not None:
        _write_manifest(manifest, command, code, time.monotonic() - started, session)
    if code:
        sys.exit(code)


# ---------------------------------------------------------------------------
# stdio batch mode
# ---------------------------------------------------------------------------


def _stdio_one(line: str) -> Tuple[str, int]:
    try:
        try:
            req = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError("request", f"invalid JSON: {exc}") from None
        if not isinstance(req, dict):
            raise SchemaError("request", "expected an object")
        preset = req.pop("preset", None)
        if preset is not None:
            base = load_preset(preset)
            base.pop("note", None)
            for key, value in base.items():
                req.setdefault(key, value)
        op = req.pop("op", None)
        if not isinstance(op, str):
            raise SchemaError("op", "missing operation name")
        cfg = RunConfig.from_mapping(req.pop("config", {}) or {})
    except SchemaError as exc:
        return _canonical_json(_error_doc(None, exc)) + "\n", 2
    doc, code, _ = run_op(op, cfg, req)
    return _canonical_json(doc) + "\n", code


def _pool_size(jobs: int, requests: int) -> int:
    """Worker processes for a batch: no more than the CPUs or the requests."""
    return max(1, min(jobs, os.cpu_count() or 1, requests))


def _stdio_batch(lines: Sequence[str], jobs: int) -> int:
    workers = _pool_size(jobs, len(lines))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The period cache's checksums import hashlib, which maps OpenSSL.
        # Loaded here, before the fork, the workers share the parent's
        # mapping instead of each loading a private copy.
        import hashlib  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stdio_one, lines))
    else:
        results = [_stdio_one(line) for line in lines]
    worst = 0
    for text, code in results:
        sys.stdout.write(text)
        worst = max(worst, code)
    sys.stdout.flush()
    return worst


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _config_options(fn):
    options = (
        click.option("--digits", type=int, default=128, show_default=True,
                     envvar="HAJ_DIGITS", help="Working precision in decimal digits (>= 32)."),
        click.option("--max-height", type=int, default=10**4, show_default=True,
                     envvar="HAJ_MAX_HEIGHT", help="Integer-relation search height."),
        click.option("--max-den", type=int, default=10**3, show_default=True,
                     envvar="HAJ_MAX_DEN", help="Largest denominator in membership searches."),
        click.option("--torsion-bound", type=int, default=16, show_default=True,
                     envvar="HAJ_TORSION_BOUND", help="Group-law torsion search bound."),
        click.option("--cache-dir", type=click.Path(file_okay=False, path_type=pathlib.Path),
                     default=None, envvar="HAJ_CACHE_DIR", help="Period cache directory."),
        click.option("--format", "output_format", type=click.Choice(["json", "text"]),
                     default="json", show_default=True, envvar="HAJ_FORMAT",
                     help="Verdict rendering."),
        click.option("--manifest", type=click.Path(dir_okay=False, path_type=pathlib.Path),
                     default=None, envvar="HAJ_MANIFEST",
                     help="Write run metadata (timings, cache events) to this file."),
    )
    for opt in reversed(options):
        fn = opt(fn)
    return fn


@click.group(invoke_without_command=True)
@click.version_option(__version__, prog_name="haj")
@click.option("--stdio", is_flag=True, envvar="HAJ_STDIO",
              help="Read newline-delimited JSON requests from stdin.")
@click.option("--jobs", type=int, default=1, show_default=True, envvar="HAJ_JOBS",
              help="Worker processes for --stdio batches.")
@click.pass_context
def main(ctx: click.Context, stdio: bool, jobs: int) -> None:
    """Certified invariants of zero-cycles on products of elliptic curves."""
    if ctx.invoked_subcommand is not None:
        if stdio:
            raise click.UsageError("--stdio cannot be combined with a subcommand")
        return
    if stdio:
        if jobs < 1:
            raise click.UsageError("--jobs must be positive")
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
        ctx.exit(_stdio_batch(lines, jobs))
    click.echo(ctx.get_help())
    ctx.exit(2)


def _curve_args(g2: str, g3: str, label: str = "") -> dict:
    doc = {"g2": g2, "g3": g3}
    if label:
        doc["label"] = label
    return doc


@main.command("periods")
@_config_options
@click.option("--g2", required=True, help="Quartic invariant, an exact rational.")
@click.option("--g3", required=True, help="Sextic invariant, an exact rational.")
@click.option("--label", default="", help="Curve label echoed in the output.")
def cmd_periods(g2, g3, label, **cfg_kwargs):
    """Period basis and tau for y^2 = 4x^3 - g2*x - g3."""
    _finish("periods", cfg_kwargs, lambda: {"curve": _curve_args(g2, g3, label)})


@main.command("ellog")
@_config_options
@click.option("--g2", required=True)
@click.option("--g3", required=True)
@click.option("--x", "x", required=True, help="x coordinate, an exact rational.")
@click.option("--y", "y", required=True, help="y coordinate, an exact rational.")
def cmd_ellog(g2, g3, x, y, **cfg_kwargs):
    """Elliptic logarithm of a rational point."""
    _finish(
        "ellog",
        cfg_kwargs,
        lambda: {"curve": _curve_args(g2, g3), "point": {"x": x, "y": y}},
    )


@main.command("torsion")
@_config_options
@click.option("--g2", required=True)
@click.option("--g3", required=True)
@click.option("--x", "x", required=True)
@click.option("--y", "y", required=True)
def cmd_torsion(g2, g3, x, y, **cfg_kwargs):
    """Bounded torsion test with lattice evidence for non-torsion points."""
    _finish(
        "torsion",
        cfg_kwargs,
        lambda: {"curve": _curve_args(g2, g3), "point": {"x": x, "y": y}},
    )


@main.command("chi2")
@_config_options
@click.option("--preset", type=str, default=None, help="Bundled input document.")
@click.option("--input", "input_path", type=str, default=None, help="JSON input file.")
@click.option("--method", type=str, default=None,
              help="PathIntegral, ClosedForm, or Both (default: Both when applicable).")
@click.option("--scale", type=str, default=None, help="Rational multiplicity before reduction.")
@click.option("--no-reduce", is_flag=True, help="Skip the lattice membership decision.")
def cmd_chi2(preset, input_path, method, scale, no_reduce, **cfg_kwargs):
    """Second invariant of a two-map spread, with membership certificate."""

    def build() -> dict:
        if preset is None and input_path is None:
            raise SchemaError("inputs", "chi2 needs --preset or --input")
        args = _load_args("chi2", preset, input_path)
        if method is not None:
            args["method"] = method
        if scale is not None:
            args["scale"] = scale
        if no_reduce:
            args["reduce"] = False
        return args

    _finish("chi2", cfg_kwargs, build)


@main.command("chi3")
@_config_options
@click.option("--preset", type=str, default=None)
@click.option("--input", "input_path", type=str, default=None)
@click.option("--reduce", "do_reduce", is_flag=True,
              help="Also decide each component against the triple-product line.")
def cmd_chi3(preset, input_path, do_reduce, **cfg_kwargs):
    """Third invariant of a three-map spread over the parameter square."""

    def build() -> dict:
        if preset is None and input_path is None:
            raise SchemaError("inputs", "chi3 needs --preset or --input")
        args = _load_args("chi3", preset, input_path)
        if do_reduce:
            args["reduce"] = True
        return args

    _finish("chi3", cfg_kwargs, build)


@main.command("classify")
@_config_options
@click.option("--preset", type=str, default=None)
@click.option("--input", "input_path", type=str, default=None)
@click.option("--g2a", type=str, default=None)
@click.option("--g3a", type=str, default=None)
@click.option("--g2b", type=str, default=None)
@click.option("--g3b", type=str, default=None)
def cmd_classify(preset, input_path, g2a, g3a, g2b, g3b, **cfg_kwargs):
    """CM and isogeny regime of a pair of curves, with probe evidence."""

    def build() -> dict:
        flags = (g2a, g3a, g2b, g3b)
        if preset is None and input_path is None:
            if any(v is None for v in flags):
                raise SchemaError(
                    "inputs", "classify needs --preset, --input, or all of --g2a/--g3a/--g2b/--g3b"
                )
            return {
                "first": {"g2": g2a, "g3": g3a},
                "second": {"g2": g2b, "g3": g3b},
            }
        if any(v is not None for v in flags):
            raise SchemaError("inputs", "curve flags cannot be combined with --preset/--input")
        return _load_args("classify", preset, input_path)

    _finish("classify", cfg_kwargs, build)


@main.command("psi2")
@_config_options
@click.option("--input", "input_path", type=str, default=None)
@click.option("--g2", type=str, default=None)
@click.option("--g3", type=str, default=None)
@click.option("--x", "x", type=str, default=None)
@click.option("--y", "y", type=str, default=None)
def cmd_psi2(input_path, g2, g3, x, y, **cfg_kwargs):
    """Nontriviality of the degree-two class of a marked one-factor cycle."""

    def build() -> dict:
        if input_path is not None:
            if any(v is not None for v in (g2, g3, x, y)):
                raise SchemaError("inputs", "point flags cannot be combined with --input")
            return _load_args("psi2", None, input_path)
        if any(v is None for v in (g2, g3, x, y)):
            raise SchemaError("inputs", "psi2 needs --input or all of --g2/--g3/--x/--y")
        return {"curve": _curve_args(g2, g3), "marker": {"x": x, "y": y}}

    _finish("psi2", cfg_kwargs, build)


@main.command("milnor-reg")
@_config_options
@click.option("--preset", type=str, default=None)
@click.option("--input", "input_path", type=str, default=None)
@click.option("--f", "f_expr", type=str, default=None, help="Rational function of t.")
@click.option("--g", "g_expr", type=str, default=None, help="Rational function of t.")
@click.option("--center", type=str, default=None, help="Loop center, decimal or re,im.")
@click.option("--radius", type=str, default=None, help="Loop radius, an exact rational.")
def cmd_milnor_reg(preset, input_path, f_expr, g_expr, center, radius, **cfg_kwargs):
    """Regulator current of {f, g} paired with a circular loop."""

    def build() -> dict:
        flags = (f_expr, g_expr, center, radius)
        if preset is None and input_path is None:
            if any(v is None for v in flags):
                raise SchemaError(
                    "inputs", "milnor-reg needs --preset, --input, or --f/--g/--center/--radius"
                )
            parts = center.split(",")
            if len(parts) == 1:
                center_doc: object = {"re": parts[0].strip(), "im": "0"}
            elif len(parts) == 2:
                center_doc = {"re": parts[0].strip(), "im": parts[1].strip()}
            else:
                raise SchemaError("inputs.center", "expected 're' or 're,im'")
            return {"f": f_expr, "g": g_expr, "center": center_doc, "radius": radius}
        if any(v is not None for v in flags):
            raise SchemaError("inputs", "loop flags cannot be combined with --preset/--input")
        return _load_args("milnor-reg", preset, input_path)

    _finish("milnor-reg", cfg_kwargs, build)


@main.command("tame")
@_config_options
@click.option("--f", "f_expr", required=True, help="Rational function of t.")
@click.option("--g", "g_expr", required=True, help="Rational function of t.")
@click.option("--place", required=True,
              help="'infinity', a rational number, or an irreducible polynomial in t.")
def cmd_tame(f_expr, g_expr, place, **cfg_kwargs):
    """Tame symbol of {f, g} at one closed place of the projective line."""
    _finish("tame", cfg_kwargs, lambda: {"f": f_expr, "g": g_expr, "place": place})


@main.command("weil")
@_config_options
@click.option("--input", "input_path", type=str, default=None)
@click.option("--f", "f_expr", type=str, default=None)
@click.option("--g", "g_expr", type=str, default=None)
@click.option("--random", "random_trials", type=int, default=None,
              help="Check this many seeded random pairs instead of one pair.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-deg", type=int, default=4, show_default=True)
@click.option("--degree-cap", type=int, default=6, show_default=True,
              help="Largest residue-field degree the norm computation accepts.")
def cmd_weil(input_path, f_expr, g_expr, random_trials, seed, max_deg, degree_cap, **cfg_kwargs):
    """Product of tame-symbol norms over all places; must equal one."""

    def build() -> dict:
        if input_path is not None:
            args = _load_args("weil", None, input_path)
        elif random_trials is not None:
            args = {"random": random_trials, "seed": seed, "max_deg": max_deg}
        else:
            if f_expr is None or g_expr is None:
                raise SchemaError("inputs", "weil needs --f/--g, --random, or --input")
            args = {"f": f_expr, "g": g_expr}
        args.setdefault("degree_cap", degree_cap)
        return args

    _finish("weil", cfg_kwargs, build)


@main.command("kummer-check")
@_config_options
@click.option("--preset", type=str, default=None)
@click.option("--input", "input_path", type=str, default=None)
def cmd_kummer_check(preset, input_path, **cfg_kwargs):
    """Exact pull-push identity through the simultaneous-negation quotient."""

    def build() -> dict:
        if preset is None and input_path is None:
            raise SchemaError("inputs", "kummer-check needs --preset or --input")
        return _load_args("kummer-check", preset, input_path)

    _finish("kummer-check", cfg_kwargs, build)


@main.command("relation")
@_config_options
@click.option("--input", "input_path", type=str, default=None,
              help="JSON with v + gens (membership) or xs (relation search).")
@click.option("--xs", "xs_text", type=str, default=None,
              help="Comma-separated values for an integer-relation search.")
def cmd_relation(input_path, xs_text, **cfg_kwargs):
    """Integer-relation and lattice-membership searches on given values."""

    def build() -> dict:
        if (input_path is None) == (xs_text is None):
            raise SchemaError("inputs", "relation needs exactly one of --input or --xs")
        if input_path is not None:
            return _load_args("relation", None, input_path)
        return {"xs": [part.strip() for part in xs_text.split(",") if part.strip()]}

    _finish("relation", cfg_kwargs, build)


if __name__ == "__main__":
    main()
