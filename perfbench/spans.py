"""Stage spans and kernel counters, installed from outside the package.

Nothing under `src/` knows about this module: it replaces functions in the
package's module namespaces with wrappers and puts the originals back on
exit.  Two kinds of instrument exist, used in separate passes:

* `SpanRecorder` times every call of the stage functions in `STAGES`.
* `CallCounter` counts calls of the stages and of the kernel methods in
  `KERNELS`, plus the result sizes named in `terms_out` and `hit_frac`.
  Counting wraps the hottest methods of the package, so it runs in its own
  pass and its cost never reaches a span.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Stage functions per module.  `core.analyze_system` and
# `regularize.regularize` are the umbrella stages: with them spanned,
# `cli.main`'s self time is the front end's own work (argument parsing,
# report building), not untraced engine work.
STAGES = {
    "cli": ["main"],
    "model": ["parse_input", "serialize_report"],
    "core": [
        "analyze_system",
        "enumerate_fuchsian_exponents",
        "solve_dominant",
        "verify_dominant_balance",
        "kowalevskian",
        "resonance_structure",
        "expand_balance",
        "check_principal",
    ],
    "regularize": [
        "regularize",
        "indicial_normalization",
        "absorb_resonances",
        "build_triangular_change",
        "transform_system",
        "verify_regularity",
        "transform_balance",
    ],
    "hamiltonian": [
        "check_almost_weighted_homogeneous",
        "symplectic_pairing",
        "symplectic_normalize",
        "canonical_exchanges",
        "build_canonical_change",
        "verify_canonical",
        "new_hamiltonian",
        "hamilton_equations_match",
    ],
    "series": ["substitute_poly", "compose", "revert_series", "rational_power_of_unit"],
}

STAGE_NAMES = {f"{module}.{fn}" for module, functions in STAGES.items() for fn in functions}

# Kernel methods per class, as metric name -> attribute names.  Reflected
# operators share the function of the forward one, so they count with it.
KERNELS = {
    ("series", "TruncatedSeries"): {
        "mul": ["__mul__"],
        "pow": ["__pow__"],
        "inverse": ["inverse"],
    },
    ("algebra", "MultiPoly"): {
        "init": ["__init__"],
        "add": ["__add__", "__radd__"],
        "mul": ["__mul__", "__rmul__"],
        "replace": ["replace"],
    },
}

# Stages whose returned series are sized into `terms_out`.
SIZED = {"series.substitute_poly", "series.compose", "series.revert_series"}


def _package_module(name: str):
    # `painleve.regularize` as an attribute is the function that the package
    # `__init__` re-exports, so the module must come from sys.modules.
    return sys.modules["painleve." + name]


def _namespaces():
    return [m for key, m in list(sys.modules.items()) if key == "painleve" or key.startswith("painleve.")]


@contextmanager
def _patched(make_wrapper):
    """Replace every stage function by `make_wrapper(name, fn)` in every
    package namespace that holds it (a module that imported it by name holds
    its own reference), and restore all of them on exit."""
    undo = []
    namespaces = _namespaces()
    try:
        for mod_name, functions in STAGES.items():
            home = _package_module(mod_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = make_wrapper(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            undo.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        yield
    finally:
        for ns, attr, original in reversed(undo):
            setattr(ns, attr, original)


class SpanRecorder:
    """Spans of stage calls, kept in memory.

    A span is (name, start, end, parent index or -1, job id).  Spans nest
    strictly because the pipeline is single-threaded and synchronous."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = ""

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        with _patched(self._wrap):
            yield self

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: span durations minus their direct
        children's durations, summed over all spans of that name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def covered(self, names: set[str]) -> float:
        """Seconds covered by spans named in `names`, counting a span only
        when no ancestor is also in `names`."""
        total = 0.0
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total


def _terms(series) -> int:
    return sum(len(poly.terms) for poly in series.coeffs.values())


class CallCounter:
    """Exact counts: calls per stage and kernel, series terms returned by the
    `SIZED` stages, and `solve_dominant` calls that found a leading vector."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.terms_out: dict[str, int] = {name: 0 for name in SIZED}
        self.dominant_hits = 0

    def _wrap(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name in SIZED:
                self.terms_out[name] += _terms(result)
            elif name == "core.solve_dominant" and isinstance(result, list) and result:
                self.dominant_hits += 1
            return result

        return wrapper

    def _wrap_kernel(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        undo = []
        try:
            for (mod_name, cls_name), methods in KERNELS.items():
                cls = getattr(_package_module(mod_name), cls_name)
                for metric, attrs in methods.items():
                    name = f"{mod_name}.{cls_name}.{metric}"
                    for attr in attrs:
                        original = cls.__dict__[attr]
                        undo.append((cls, attr, original))
                        setattr(cls, attr, self._wrap_kernel(name, original))
            with _patched(self._wrap):
                yield self
        finally:
            for cls, attr, original in reversed(undo):
                setattr(cls, attr, original)
