"""The benchmark's layer tracer must still find every function it wraps.

``bench/tracer.py`` wraps functions by (module, attribute) name. A rename in
the package would make the traced benchmark fail at install time, so this
checks every name without installing anything.
"""

import importlib
import importlib.util
import pathlib

import mpmath.calculus.quadrature as quadrature

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_names", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [
        f"{mod_name}.{attr}"
        for mod_name, attr, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(mod_name), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("haj.cli").Session.lattice)
    assert callable(quadrature.GaussLegendre.calc_nodes)
