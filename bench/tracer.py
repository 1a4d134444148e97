"""Span tracing of the ``odofull`` layers, installed from outside the package.

Each layer is one ``odofull`` module.  :class:`Tracer` wraps every public
function of a layer module and every public (or arithmetic / constructor)
method of the classes that module defines, so a call into a layer opens a
span and calls it makes into other layers become child spans.  Functions
are rebound in every ``odofull.*`` namespace that holds its own reference
(``factor`` and ``cli`` import ``induce`` by name, the package re-exports
almost everything); methods are wrapped on the class, so instances made
before installation are traced too.

Spans stay in memory as rows of six integers ``(parent, function,
request, depth, start_ns, end_ns)`` in one flat ``array`` and are written
out once the run ends.  A span's self
time is its duration minus the durations of its direct children.  Counts
are taken at the same boundaries, after the span's clock has stopped.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "dyadic",
    "clopen",
    "element",
    "induced",
    "factor",
    "escape",
    "skyscraper",
    "serialize",
    "cli",
)

SPAN_FIELDS = 6

# Layers whose calls are tagged with a table depth, for ``growth_per_level``.
DEPTH_LAYERS = ("clopen", "element", "induced", "escape")

# Dunder methods worth a span: constructors, arithmetic and comparisons.
_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__abs__", "__pow__", "__eq__", "__lt__", "__le__",
    "__gt__", "__ge__", "__or__", "__and__", "__invert__",
}

# Mask walks whose cost is the 2**depth bits they scan.
_MASK_WALKS = {
    "clopen.ClopenSet.prefixes",
    "clopen.ClopenSet.prefixes_at_depth",
    "clopen.ClopenSet.bits_at_depth",
    "clopen.ClopenSet.from_prefixes",
    "clopen.ClopenSet.translate",
}

_FACTOR_ENTRY_POINTS = {
    "factor.decompose_pnp",
    "factor.positivize",
    "factor.factor_positive",
    "factor.normal_form",
    "factor.factor_periodic_into_involutions",
}


def _traceable(fn, module) -> bool:
    """True for functions written in ``module``'s source file.

    Excludes methods generated by ``dataclasses`` and ``NamedTuple``,
    whose code objects come from ``<string>``.
    """
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _depth_getter(fn):
    """How to read the table depth a call works at, or ``None``.

    A ``depth`` parameter wins (``bits_at_depth(depth)``, constructors,
    ``random_element``); otherwise the largest ``.depth`` among the
    positional arguments (``u * v``, ``induce(u, subset)``).
    """
    params = list(inspect.signature(fn).parameters)
    if "depth" in params:
        position = params.index("depth")

        def from_param(args, kwargs):
            if "depth" in kwargs:
                return kwargs["depth"]
            return args[position] if position < len(args) else -1

        return from_param

    def from_operands(args, kwargs):
        depth = -1
        for arg in args:
            d = getattr(arg, "depth", None)
            if isinstance(d, int) and d > depth:
                depth = d
        return depth

    return from_operands


class Tracer:
    """Spans and counters for one traced pass over a request list."""

    def __init__(self, od):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.request = -1
        self._restore: list[tuple] = []
        self._typed_error = od.OdofullError

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"odofull.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and _traceable(value, module):
                    originals[id(value)] = (value, self._wrap(layer, name, value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value, module)
        # Rebind each wrapped function wherever a namespace holds it by name.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "odofull" and not mod_name.startswith("odofull."):
                continue
            for name, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
                    self._restore.append((module, name, value))

    def _wrap_class(self, layer, cls, module) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if _traceable(fn, module):
                    wrapped = type(raw)(self._wrap(layer, qualname, fn))
                    setattr(cls, name, wrapped)
                    self._restore.append((cls, name, raw))
            elif inspect.isfunction(raw) and _traceable(raw, module):
                setattr(cls, name, self._wrap(layer, qualname, raw))
                self._restore.append((cls, name, raw))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, layer, qualname, fn):
        fid = len(self.names)
        name = f"{layer}.{qualname}"
        self.names.append(name)
        depth_of = _depth_getter(fn) if layer in DEPTH_LAYERS else None
        count = self._counter_for(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            depth = depth_of(args, kwargs) if depth_of is not None else -1
            parent = stack[-1] if stack else -1
            row = len(spans)
            spans.extend((parent, fid, tracer.request, depth, 0, 0))
            stack.append(row // SPAN_FIELDS)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[row + 5] = clock()
                spans[row + 4] = start
                stack.pop()
                tracer.note_error(exc)
                raise
            spans[row + 5] = clock()
            spans[row + 4] = start
            stack.pop()
            if count is not None:
                count(args, result, depth, parent)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _counter_for(self, name):
        """Layer-specific count taken when a call of ``name`` returns."""
        counts = self.counts
        layer = name.partition(".")[0]
        if name == "dyadic.Dyadic.__init__":
            def count(args, result, depth, parent):
                counts["dyadic.ops"] += 1
        elif name in _MASK_WALKS:
            def count(args, result, depth, parent):
                counts["clopen.bits_scanned"] += 1 << depth
        elif name == "element.FullGroupElement.__init__":
            def count(args, result, depth, parent):
                counts["element.constructs"] += 1
                counts["element.entries_built"] += 1 << depth
        elif name == "element.FullGroupElement.__mul__":
            def count(args, result, depth, parent):
                counts["element.compose_calls"] += 1
        elif name == "induced.induce":
            def count(args, result, depth, parent):
                counts["induced.induce_calls"] += 1
                counts["induced.entries"] += 1 << result.depth
                counts["induced.hops"] += sum(result.return_times.values())
        elif name in _FACTOR_ENTRY_POINTS:
            def count(args, result, depth, parent):
                counts["factor.calls"] += 1
                if name == "factor.factor_positive":
                    counts["factor.peels"] += len(result.word)
                word = getattr(result, "word", None)
                if word is not None and not self._inside(parent, "factor."):
                    counts["factor.word_len"] += len(word)
                    counts["factor.unverified"] += not result.verified
        elif name == "escape.escape_time":
            def count(args, result, depth, parent):
                counts["escape.calls"] += 1
                counts["escape.members"] += len(result.times)
        elif name == "escape.escape_tower_family":
            def count(args, result, depth, parent):
                counts["escape.calls"] += 1
        elif name in ("skyscraper.TowerElement.from_moves", "skyscraper.TowerElement.__init__"):
            def count(args, result, depth, parent):
                element = result if result is not None else args[0]
                counts["skyscraper.moves"] += sum(len(m) for m in element.moves)
        elif name == "serialize.parse_element":
            def count(args, result, depth, parent):
                source = args[0].strip()
                if source.startswith("{"):
                    counts["serialize.bytes_in"] += len(source.encode())
                else:
                    counts["serialize.bytes_in"] += os.path.getsize(source)
        elif layer == "serialize":
            def count(args, result, depth, parent):
                if isinstance(result, str):
                    counts["serialize.bytes_out"] += len(result.encode())
        elif name == "cli.main":
            def count(args, result, depth, parent):
                counts["cli.calls"] += 1
                counts["cli.exit_nonzero"] += result != 0
        else:
            count = None
        return count

    def _inside(self, sid, prefix) -> bool:
        """True when span ``sid`` or one of its ancestors is in ``prefix``.

        A span's parent and function are recorded when it opens, so the
        chain of callers can be walked while they are still running.
        """
        spans = self.spans
        while sid >= 0:
            row = sid * SPAN_FIELDS
            if self.names[spans[row + 1]].startswith(prefix):
                return True
            sid = spans[row]
        return False

    def note_error(self, exc: BaseException) -> None:
        """Count an exception once, at the innermost boundary it crosses."""
        if getattr(exc, "_bench_counted", False):
            return
        try:
            exc._bench_counted = True
        except AttributeError:
            pass
        if isinstance(exc, self._typed_error):
            self.counts["errors.typed"] += 1
        elif isinstance(exc, Exception):
            self.counts["errors.untyped"] += 1

    # -- requests -----------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.enabled = True

    def end(self) -> None:
        self.enabled = False
        self.stack.clear()

    # -- results --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def column(self, field: int) -> array:
        return self.spans[field::SPAN_FIELDS]

    def self_times(self) -> list[int]:
        """Self time of every span in nanoseconds."""
        durations = [end - start for start, end in zip(self.column(4), self.column(5))]
        child = [0] * len(durations)
        for parent, duration in zip(self.column(0), durations):
            if parent >= 0:
                child[parent] += duration
        return [d - c for d, c in zip(durations, child)]

    def layer_metrics(self, depths: range) -> dict[str, float]:
        """Every per-layer metric of the pass, by name.

        ``<layer>.growth_per_level`` is the geometric mean over adjacent
        depths in ``depths`` of the ratio of mean self time per call at
        depth ``d + 1`` to that at depth ``d``; it is 0 when the layer has
        no calls at two adjacent depths of the range.
        """
        metrics: dict[str, float] = {}
        layer_of = [name.partition(".")[0] for name in self.names]
        calls = Counter()
        self_ns = Counter()
        by_depth_ns = Counter()
        by_depth_calls = Counter()
        certify_ns = 0
        certify = {
            fid for fid, name in enumerate(self.names)
            if name == "factor.FactorizationCertificate.compose_word"
        }
        columns = zip(self.column(1), self.column(3), self.column(4), self.column(5))
        for (fid, depth, start, end), own in zip(columns, self.self_times()):
            layer = layer_of[fid]
            calls[layer] += 1
            self_ns[layer] += own
            if depth in depths:
                by_depth_ns[layer, depth] += own
                by_depth_calls[layer, depth] += 1
            if fid in certify:
                certify_ns += end - start
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for layer in ("clopen", "skyscraper", "serialize"):
            metrics[f"{layer}.calls"] = calls[layer]
        for layer in DEPTH_LAYERS:
            ratios = []
            for d in depths:
                lo = (layer, d)
                hi = (layer, d + 1)
                if by_depth_calls[lo] and by_depth_calls[hi] and by_depth_ns[lo] > 0:
                    mean_lo = by_depth_ns[lo] / by_depth_calls[lo]
                    mean_hi = by_depth_ns[hi] / by_depth_calls[hi]
                    if mean_hi > 0:
                        ratios.append(mean_hi / mean_lo)
            metrics[f"{layer}.growth_per_level"] = (
                math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
            )
        metrics["factor.certify_s"] = certify_ns / 1e9
        for name in COUNTS:
            metrics[name] = self.counts[name]
        return metrics

    def write_spans(self, path) -> None:
        """Write the spans as a gzip file.

        The first line is a JSON header naming the columns and the
        functions; the rest is the span table as native 64-bit integers,
        six per span, a span's id being its row number.
        """
        header = {
            "columns": ["parent", "function", "request", "depth", "start_ns", "end_ns"],
            "byteorder": sys.byteorder,
            "functions": self.names,
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(self.spans.tobytes())


# Counters taken at layer boundaries; the rest of the per-layer metrics are
# self times, call counts and growth rates derived from the spans.
COUNTS = (
    "dyadic.ops",
    "clopen.bits_scanned",
    "element.constructs",
    "element.entries_built",
    "element.compose_calls",
    "induced.induce_calls",
    "induced.entries",
    "induced.hops",
    "factor.calls",
    "factor.peels",
    "factor.word_len",
    "factor.unverified",
    "escape.calls",
    "escape.members",
    "skyscraper.moves",
    "serialize.bytes_in",
    "serialize.bytes_out",
    "cli.calls",
    "cli.exit_nonzero",
    "errors.typed",
    "errors.untyped",
)
