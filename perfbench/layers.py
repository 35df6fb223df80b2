"""Per-layer timing of the engine, from outside, by wrapping public functions.

A layer is one ``g2forms`` module.  Each function listed in :data:`LAYERS`
is replaced by a wrapper that records calls and self time (its span minus
the spans of wrapped functions called inside it).  Because ``from ... import``
copies a function into the importing module, the wrapper is bound under
every ``g2forms`` module attribute that held the original, and
:meth:`LayerTracer.install` fails if any original is still reachable.

Count metrics are measured at the same boundaries:

* ``g2forms._linalg.rref.cells``: sum of rows x cols over rref calls;
* ``g2forms.exterior.wedge.term_pairs``: sum of |alpha| * |beta| over the
  coefficient counts of wedge arguments;
* ``g2forms.scalars.poly_new``: number of ``PolyScalar`` constructions.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

LAYERS = {
    "g2forms.liealg": ("from_matrices", "reductive_split", "jacobi_check"),
    "g2forms._linalg": (
        "rref", "matmul", "solve_many", "det", "congruence_diagonalize", "inverse",
    ),
    "g2forms.invariants": (
        "invariant_forms", "closed_forms", "ce_differential", "d_squared_check",
    ),
    "g2forms.exterior": ("wedge", "contract", "parse_form"),
    "g2forms.gstruct": (
        "b_matrix", "definiteness", "obstruction_certificate", "hodge_dual_up_to_scale",
        "g2_torsion_report", "su3_check", "hitchin_stability",
    ),
    "g2forms.catalog": ("load_case", "verify_case"),
}


def _rref_cells(mat, *_args, **_kwargs) -> int:
    return len(mat) * len(mat[0]) if mat else 0


def _wedge_term_pairs(alpha, beta, *_args, **_kwargs) -> int:
    return len(alpha.coeffs) * len(beta.coeffs)


COUNTERS = {
    ("g2forms._linalg", "rref"): ("g2forms._linalg.rref.cells", _rref_cells),
    ("g2forms.exterior", "wedge"): ("g2forms.exterior.wedge.term_pairs", _wedge_term_pairs),
}
POLY_NEW = "g2forms.scalars.poly_new"


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [f"{module}.{fn}.self_s", f"{module}.{fn}.calls"]
    names += [name for name, _ in COUNTERS.values()]
    names.append(POLY_NEW)
    return names


def _engine_modules() -> list:
    """Every importable g2forms module (``__main__`` excluded: it runs the CLI)."""
    import g2forms

    for info in pkgutil.walk_packages(g2forms.__path__, "g2forms."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if (name == "g2forms" or name.startswith("g2forms.")) and m is not None]


class LayerTracer:
    """Wraps the functions of :data:`LAYERS`; holds raw self seconds and counts."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.totals = {name: 0 for name, _ in COUNTERS.values()}
        self.totals[POLY_NEW] = 0
        self._stack = []  # child-span seconds accumulated per open span

    def _wrap(self, key: str, fn, counter):
        stack = self._stack
        self_s, calls, totals = self.self_s, self.calls, self.totals
        perf_counter = time.perf_counter
        self_s[key] = 0.0
        calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                totals[counter[0]] += counter[1](*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[key] += span - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += span

        return wrapper

    def install(self) -> None:
        modules = _engine_modules()
        originals = []
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(
                    f"{module_name}.{fn_name}", original, COUNTERS.get((module_name, fn_name))
                )
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                originals.append(original)

        from g2forms.scalars import PolyScalar

        init = PolyScalar.__init__
        totals = self.totals

        def counting_init(obj, *args, **kwargs):
            totals[POLY_NEW] += 1
            init(obj, *args, **kwargs)

        PolyScalar.__init__ = counting_init
        originals.append(init)

        ids = {id(fn) for fn in originals}
        leaks = [f"{mod.__name__}.{attr}" for mod in modules
                 for attr, value in vars(mod).items() if id(value) in ids]
        if leaks:
            raise RuntimeError(f"unwrapped engine functions still reachable: {leaks}")

    def counts(self) -> dict:
        """Call counts of the wrapped functions and the count metrics."""
        return {**{f"{key}.calls": n for key, n in self.calls.items()}, **self.totals}
