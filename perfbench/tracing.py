"""Spans and counters recorded around the program's public callables.

A hook replaces a callable at every name where callers look it up (the
package, its defining module, and each module that imports it), times each
call and passes arguments, result and exceptions through untouched.  A
target that a refactor removed is reported absent; its layer reads 0.

Self time is a call's duration minus the time of the hooked calls inside
it.  Calls made inside the oracle are not recorded, so the oracle's own
Laurent arithmetic does not count as qalgebra work.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> [(module[:class], attribute)] where callers look the callable up
HOOKS: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("braidjones.cli", "main")],
    "braid.parse": [
        ("braidjones", "parse"),
        ("braidjones.braid", "parse"),
        ("braidjones.cli", "parse"),
    ],
    "diagram.build": [
        ("braidjones", "build"),
        ("braidjones.diagram", "build"),
        ("braidjones.statesum", "build"),
        ("braidjones.cli", "build"),
    ],
    "states.enumerate": [
        ("braidjones", "enumerate_states"),
        ("braidjones.states", "enumerate_states"),
        ("braidjones.statesum", "enumerate_states"),
        ("braidjones.cli", "enumerate_states"),
    ],
    "states.derive_colors": [
        ("braidjones", "derive_colors"),
        ("braidjones.states", "derive_colors"),
    ],
    "statesum.framed": [
        ("braidjones", "colored_jones_framed"),
        ("braidjones.statesum", "colored_jones_framed"),
        ("braidjones.cli", "colored_jones_framed"),
    ],
    "statesum.weigh_rmatrix": [("braidjones.statesum", "rmatrix_contribution")],
    "statesum.weigh_gl": [("braidjones.statesum", "gl_contribution")],
    "qalgebra.mul": [
        ("braidjones.qalgebra:LaurentQ", "__mul__"),
        ("braidjones.qalgebra:LaurentQ", "__rmul__"),
    ],
    "qalgebra.add": [
        ("braidjones.qalgebra:LaurentQ", "__add__"),
        ("braidjones.qalgebra:LaurentQ", "__radd__"),
    ],
    "oracle.kauffman": [
        ("braidjones", "kauffman_jones"),
        ("braidjones.oracle", "kauffman_jones"),
        ("braidjones.cli", "kauffman_jones"),
    ],
}

# Calls of these are kept as individual spans; the per-state and per-product
# hooks are too frequent for that and are only summed.
SPANNED = {
    "cli.main",
    "braid.parse",
    "diagram.build",
    "states.enumerate",
    "statesum.framed",
    "oracle.kauffman",
}
OPAQUE = {"oracle.kauffman"}

# lru_cache tables read through cache_info(): metric prefix -> defining module
CACHES = {
    "statesum.vertex_cache": "braidjones.statesum",
    "qalgebra.symbol_cache": "braidjones.qalgebra",
}

MINUS, PLUS = -1, 1  # the program's sign conventions: R-matrix and arc-transition


def _size(x) -> int:
    return len(x) if hasattr(type(x), "__len__") else 1


def _owner(spec: str):
    module_name, _, cls = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Hooks, the call stack and the totals of one traced pass."""

    def __init__(self, hooks: dict[str, list[tuple[str, str]]] = HOOKS) -> None:
        self.hooks = hooks
        self.totals = {name: [0, 0.0, 0.0] for name in hooks}  # calls, seconds, self seconds
        self.stack: list[list] = []  # [hooked child seconds, enclosing span index]
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.opaque = 0
        self.states = {MINUS: 0, PLUS: 0}
        self.term_products = 0
        self.max_terms = 0
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, targets in self.hooks.items():
            wrappers: dict[int, object] = {}
            for spec, attr in targets:
                owner = _owner(spec)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                setattr(owner, attr, wrappers[id(original)])
                self._patched.append((owner, attr, original))
            if not wrappers:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "qalgebra.mul" and len(args) == 2:
            self.term_products += _size(args[0]) * _size(args[1])
            self.max_terms = max(self.max_terms, _size(result))
        elif name == "states.enumerate":
            convention = kwargs.get("convention", args[2] if len(args) > 2 else None)
            if convention in self.states:
                self.states[convention] += _size(result)

    def _wrap(self, name: str, fn):
        totals = self.totals[name]
        spanned = name in SPANNED
        opaque = name in OPAQUE
        counted = name in ("qalgebra.mul", "states.enumerate")
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if tracer.opaque:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            span = len(tracer.spans) if spanned else parent
            if spanned:
                tracer.spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            tracer.opaque += opaque
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.opaque -= opaque
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if spanned:
                    tracer.spans[span] = (name, start, end, parent)
            if counted:
                tracer._count(name, args, kwargs, result)
            return result

        return hooked

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since install()."""
        t = self.totals

        def calls(name):
            return t[name][0]

        def seconds(name):
            return t[name][1]

        def self_seconds(name):
            return t[name][2]

        out = {
            "cli.self_s": self_seconds("cli.main"),
            "cli.calls": calls("cli.main"),
            "braid.parse_s": seconds("braid.parse"),
            "diagram.build_s": seconds("diagram.build"),
            "diagram.build_calls": calls("diagram.build"),
            "states.enumerate_s": self_seconds("states.enumerate"),
            "states.enumerate_calls": calls("states.enumerate"),
            "states.derive_colors_s": seconds("states.derive_colors"),
            "states.states_rmatrix": self.states[MINUS],
            "states.states_gl": self.states[PLUS],
            "statesum.framed_s": seconds("statesum.framed"),
            "statesum.self_s": self_seconds("statesum.framed"),
            "statesum.weigh_rmatrix_s": seconds("statesum.weigh_rmatrix"),
            "statesum.weigh_gl_s": seconds("statesum.weigh_gl"),
            "statesum.weigh_rmatrix_calls": calls("statesum.weigh_rmatrix"),
            "statesum.weigh_gl_calls": calls("statesum.weigh_gl"),
            "qalgebra.mul_s": seconds("qalgebra.mul"),
            "qalgebra.mul_calls": calls("qalgebra.mul"),
            "qalgebra.mul_term_products": self.term_products,
            "qalgebra.mul_max_terms": self.max_terms,
            "qalgebra.add_s": seconds("qalgebra.add"),
            "oracle.kauffman_s": seconds("oracle.kauffman"),
        }
        for prefix, module_name in CACHES.items():
            hits, misses = cache_counts(module_name)
            out[f"{prefix}_hits"] = hits
            out[f"{prefix}_misses"] = misses
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "totals": self.totals, "spans": self.spans}, fh)


def cache_counts(module_name: str) -> tuple[int, int]:
    """Summed (hits, misses) of the lru_caches defined in a module."""
    owner = _owner(module_name)
    hits = misses = 0
    for value in vars(owner).values() if owner is not None else ():
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module_name:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses
