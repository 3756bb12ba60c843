"""Outside-in layer tracing: spans around calls into each module's public functions.

The package is not modified. ``install`` wraps each listed function in every
``haj.*`` namespace that binds it (the modules import each other's functions
by name) and mpmath's Gauss-Legendre node generator. Spans (name, start,
end, parent, request id, request digits, extra) stay in memory and are
written out when the run ends. A span's self time is its duration minus the
part its child spans cover; children of one span never overlap because
everything runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

# (module, attribute, layer name); names follow <module>.<function>
TRACED = (
    ("haj.numkernel", "agm", "numkernel.agm"),
    ("haj.numkernel", "integrate_path", "numkernel.integrate_path"),
    ("haj.numkernel", "detect_crossings", "numkernel.detect_crossings"),
    ("haj.elliptic", "compute_periods", "elliptic.compute_periods"),
    ("haj.elliptic", "weierstrass_p", "elliptic.weierstrass_p"),
    ("haj.elliptic", "elliptic_log", "elliptic.elliptic_log"),
    ("haj.elliptic", "is_torsion", "elliptic.is_torsion"),
    ("haj.relations", "lll_reduce", "relations.lll_reduce"),
    ("haj.relations", "pslq", "relations.pslq"),
    ("haj.relations", "integer_relation_complex", "relations.integer_relation_complex"),
    ("haj.relations", "lattice_membership", "relations.lattice_membership"),
    ("haj.invariants", "chi2_box", "invariants.chi2_box"),
    ("haj.invariants", "chi2_reduce", "invariants.chi2_reduce"),
    ("haj.invariants", "chi3_box", "invariants.chi3_box"),
    ("haj.invariants", "classify_case", "invariants.classify_case"),
    ("haj.invariants", "psi2_nonvanishing", "invariants.psi2_nonvanishing"),
    ("haj.milnor", "regulator_eval", "milnor.regulator_eval"),
    ("haj.milnor", "tame_symbol", "milnor.tame_symbol"),
    ("haj.milnor", "weil_reciprocity_check", "milnor.weil_reciprocity_check"),
    ("haj.cycles", "kummer_pushpull", "cycles.kummer_pushpull"),
    ("haj.cli", "run_op", "cli.run_op"),
)
GL_NODES = "mpmath.gl_nodes"
SESSION_LATTICE = "cli.session.lattice"
AMPLIFY = "relations.amplify"
LAYERS = tuple(name for _, _, name in TRACED) + (GL_NODES, SESSION_LATTICE, AMPLIFY)
DIGITS_SPLIT = (
    "elliptic.weierstrass_p",
    "relations.lll_reduce",
    "numkernel.integrate_path",
    "numkernel.detect_crossings",
    GL_NODES,
)
TIERS = (64, 128, 256, 512)

# span fields
NAME, START, END, PARENT, REQUEST, DIGITS, EXTRA = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = -1
        self.digits = 0

    def clear(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.request, tracer.digits, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                span[EXTRA] = after(args, out)
            return out

        return traced

    def _enter_request(self, args, kwargs) -> None:
        if not self._stack:
            self.request += 1
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self.digits = int(cfg.digits)


def _max_entry_bits(args, _out) -> int:
    rows = args[0]
    return max((abs(int(x)).bit_length() for row in rows for x in row), default=0)


def _membership_outcome(_args, out) -> bool:
    return bool(out.is_member and out.amplified)


def _cache_events(_args, out) -> List[str]:
    return list(out[2].events)


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "haj" or mod_name.startswith("haj.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call once, after ``import haj.cli``."""
    import mpmath.calculus.quadrature as quadrature

    extras = {
        "relations.lll_reduce": (None, _max_entry_bits),
        "relations.lattice_membership": (None, _membership_outcome),
        "cli.run_op": (tracer._enter_request, _cache_events),
    }
    for mod_name, attr, name in TRACED:
        original = getattr(sys.modules[mod_name], attr)
        before, after = extras.get(name, (None, None))
        _rebind(original, tracer.wrap(name, original, before, after))
    session = sys.modules["haj.cli"].Session
    session.lattice = tracer.wrap(SESSION_LATTICE, session.lattice)
    rule = quadrature.GaussLegendre
    rule.calc_nodes = tracer.wrap(GL_NODES, rule.calc_nodes)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _layer_names(spans: Sequence[list]) -> List[str]:
    """Span names, with chi2 recomputes under a membership test renamed to
    the doubled-precision amplification layer."""
    names = [s[NAME] for s in spans]
    for i, s in enumerate(spans):
        p = s[PARENT]
        while s[NAME] == "invariants.chi2_box" and p >= 0:
            if spans[p][NAME] == "relations.lattice_membership":
                names[i] = AMPLIFY
                break
            p = spans[p][PARENT]
    return names


def metric_names() -> List[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [f"{layer}.self_s.d{d}" for layer in DIGITS_SPLIT for d in TIERS]
    names += [
        "relations.lll_reduce.max_entry_bits",
        "relations.amplify.accept_ratio",
        "cli.session.pool_hit_ratio",
        "cli.period_cache.hit_ratio",
        "trace.wall_s",
        "trace.self_sum_s",
        "trace.untraced_s",
        "trace.verdicts_per_s",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("verdicts_per_s"):
        return "1/s"
    return "s"


def layer_metrics(spans: Sequence[list], wall: float, verdicts: int) -> Dict[str, float]:
    """Per-layer calls and self time, the digits split, ratios, and the
    identity wall = sum of self times + untraced remainder."""
    selfs = self_times(spans)
    names = _layer_names(spans)
    out = {name: 0.0 for name in metric_names()}
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
        layer = names[i]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += selfs[i]
        if layer in DIGITS_SPLIT and s[DIGITS] in TIERS:
            out[f"{layer}.self_s.d{s[DIGITS]}"] += selfs[i]
        if layer == "relations.lll_reduce":
            out["relations.lll_reduce.max_entry_bits"] = max(
                out["relations.lll_reduce.max_entry_bits"], s[EXTRA])

    attempts = accepts = 0
    lattice_calls = pool_hits = 0
    cache = {"hit": 0, "other": 0}

    def has_descendant(i: int, name: str) -> bool:
        return any(names[c] == name or has_descendant(c, name) for c in children.get(i, ()))

    for i, s in enumerate(spans):
        if names[i] == "relations.lattice_membership":
            tries = sum(1 for c in children.get(i, ()) if names[c] == AMPLIFY)
            attempts += tries
            accepts += 1 if tries and s[EXTRA] else 0
        elif names[i] == SESSION_LATTICE:
            lattice_calls += 1
            pool_hits += not has_descendant(i, "elliptic.compute_periods")
        elif names[i] == "cli.run_op":
            for event in s[EXTRA] or ():
                cache["hit" if event.startswith("cache-hit") else "other"] += 1
    out["relations.amplify.accept_ratio"] = accepts / attempts if attempts else 0.0
    out["cli.session.pool_hit_ratio"] = pool_hits / lattice_calls if lattice_calls else 0.0
    total_events = cache["hit"] + cache["other"]
    out["cli.period_cache.hit_ratio"] = cache["hit"] / total_events if total_events else 0.0
    self_sum = sum(selfs)
    out["trace.wall_s"] = wall
    out["trace.self_sum_s"] = self_sum
    out["trace.untraced_s"] = wall - self_sum
    out["trace.verdicts_per_s"] = verdicts / wall if wall > 0 else 0.0
    return out
