"""Span recording around the public functions of each cyclepow layer.

The traced run wraps, from outside the package, every callable named in a
layer module's ``__all__``: functions (including ``lru_cache`` wrappers) are
replaced by a recording wrapper in every ``cyclepow.*`` namespace that bound
them, and for classes the ``__init__`` and public methods defined on the class
are wrapped in place, so ``isinstance`` and dataclass behaviour are unchanged.

A span is ``[name, parent, start_ns, end_ns, attrs]``; ``name`` starts with
the layer (``"hitting.hit_exact"``) and ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory and are written
once, when the traced process ends.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "cyclepow"

# Modules under src/cyclepow that do work.  ``errors`` only defines exception
# types; ``cli`` has no ``__all__`` and is measured as the request span's own
# self time.
LAYERS = (
    "graphs",
    "polynomials",
    "fractionfree",
    "spectral",
    "recurrences",
    "hitting",
    "arboreal",
    "verify",
)

# lru_cache-wrapped functions whose cache_info() the traced process reports.
CACHES = {
    "hitting.hit_exact_all": "hitting.exact_cache",
    "hitting.cosine_table": "hitting.cosine_cache",
    "spectral.cached_factorization": "spectral.factorization_cache",
}


def _bareiss_updates(dim: int, width: int) -> int:
    """Entry updates of one-step fraction-free elimination on a dim x width
    array: column c rewrites (dim-1-c) rows of (width-1-c) entries each."""
    return sum((dim - 1 - c) * (width - 1 - c) for c in range(dim - 1))


def _note_determinant(bound, _result):
    dim = len(bound.arguments["rows"])
    return {"dim": dim, "updates": _bareiss_updates(dim, dim)}


def _note_solve(bound, _result):
    dim = len(bound.arguments["rows"])
    return {"dim": dim, "updates": _bareiss_updates(dim, dim + 1)}


def _note_precision(bound, _result):
    bits = bound.arguments.get("precision_bits")
    return {"bits": bits} if bits is not None else {}


def _note_simulate(bound, result):
    walks = bound.arguments["walks"]
    if bound.arguments["ell"] == 0:
        return {"walks": 0, "steps": 0}
    # mean is the float sum of integer walk lengths over `walks`; the product
    # recovers the exact step total while it stays below 2**53.
    return {"walks": walks, "steps": round(result.mean * walks)}


# Functions whose arguments or results feed a counter; all others record
# only the span.
ANNOTATORS = {
    "fractionfree.determinant": _note_determinant,
    "fractionfree.solve": _note_solve,
    "spectral.find_roots": _note_precision,
    "spectral.partial_fractions": _note_precision,
    "hitting.hit_simulate": _note_simulate,
}


class Recorder:
    """In-memory span stack for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), None, None])
        self._stack.append(index)
        return index

    def close(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter_ns()
        span[4] = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def wrap(self, name: str, fn):
        """A recording wrapper around fn, reporting as span ``name``."""
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = annotate(bound, result)
                return result
            finally:
                self.close(index, attrs)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced


def _public_methods(cls):
    for attr, value in list(vars(cls).items()):
        public = attr == "__init__" or not attr.startswith("_")
        if public and inspect.isfunction(value):
            yield attr, value


def instrument(recorder: Recorder) -> dict:
    """Wrap every layer's public callables; return the original cached
    functions keyed by span name so their cache_info() stays readable."""
    modules = {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".", 1)[0] == PACKAGE
    }
    originals = {}
    for layer in LAYERS:
        module = modules[f"{PACKAGE}.{layer}"]
        for public in module.__all__:
            obj = getattr(module, public)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exported constant or foreign object
            name = f"{layer}.{public}"
            if inspect.isclass(obj):
                for attr, method in _public_methods(obj):
                    setattr(obj, attr, recorder.wrap(f"{name}.{attr}", method))
                continue
            if not callable(obj):
                continue
            wrapper = recorder.wrap(name, obj)
            originals[name] = obj
            for namespace in modules.values():
                for attr, value in list(vars(namespace).items()):
                    if value is obj:
                        setattr(namespace, attr, wrapper)
    return originals


def cache_counts(originals: dict) -> dict:
    """(hits, misses) of each tracked lru cache."""
    counts = {}
    for name, label in CACHES.items():
        info = originals[name].cache_info()
        counts[label] = [info.hits, info.misses]
    return counts


def self_times(spans) -> list[int]:
    """Per-span self time, in the unit of the span times.

    Children are clipped to their parent's interval and overlapping children
    are merged, so a child's time is never subtracted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append((span[2], span[3]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result
