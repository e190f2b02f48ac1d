"""Layer tracer: wraps the program's public functions from outside it.

Each wrapped call records a span (name, start, end, parent span, thread)
in memory and adds to its layer's call count, total time and self time.
Self time is a span's duration minus the time its wrapped children took,
worked out from a per-thread stack of open spans, so nesting never counts
twice.  ``install`` replaces a function at every module attribute, module
level dict value and class attribute of the package that refers to it, so
callers reach the wrapper whichever name they imported.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

#: Layers traced: (module, attribute path) under the ``optmech`` package.
LAYERS = (
    ("solver", "solve"),
    ("solver", "classify"),
    ("solver", "real_roots_in_interval"),
    ("solver", "solve_pa2_given_pa1"),
    ("solver", "residual_W"),
    ("solver", "solve_bundling"),
    ("mechanism", "build_mechanism"),
    ("mechanism", "expected_revenue"),
    ("geometry", "best_response_regions"),
    ("geometry", "clip"),
    ("measures", "MuBar.moments"),
    ("oracle", "certificate_check"),
    ("oracle", "brute_force_menu_search"),
    ("linear", "solve_linear"),
    ("linear", "linear_revenue"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)

#: Spans kept in memory, over all threads; counters cover every call.
MAX_SPANS = 20_000


class Tracer:
    """In-memory spans and per-layer counters for the traced section.

    The first ``MAX_SPANS`` spans, over all threads, are kept (counters
    always cover every call); the dump says how many were dropped.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []  # per-thread state, merged on report
        self._patches: list[tuple[object, str, object, bool]] = []
        self._ids = itertools.count()  # next() on these is atomic under the GIL
        self._kept = itertools.count()

    def _state(self) -> dict:
        st = getattr(self._local, "state", None)
        if st is None:
            st = {"stack": [], "spans": [], "stats": {}, "dropped": 0, "thread": threading.get_ident()}
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name: str, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]  # id, time spent in wrapped children
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                rec = st["stats"].get(name)
                if rec is None:
                    rec = st["stats"][name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if next(self._kept) < MAX_SPANS:
                    st["spans"].append((span_id, parent, name, start, end, st["thread"]))
                else:
                    st["dropped"] += 1

        return traced

    def install(self, package) -> None:
        """Wrap every layer in ``LAYERS`` wherever the package refers to it."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, attr in LAYERS:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original), False)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper, True)

    def _patch(self, target, key, wrapper, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((target, key, target[key], True))
            target[key] = wrapper
        else:
            self._patches.append((target, key, getattr(target, key), False))
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        """Put back every original the last ``install`` replaced."""
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: (calls, total seconds, self seconds), over all threads."""
        out = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        for st in self._threads:
            for name, (calls, total, self_s) in st["stats"].items():
                rec = out[name]
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {name: tuple(rec) for name, rec in out.items()}

    def dump(self, path: str, meta: dict) -> None:
        """Write the kept spans and the counters as one JSON document."""
        spans = sorted(
            (span for st in self._threads for span in st["spans"]), key=lambda s: s[3]
        )
        doc = {
            "meta": meta,
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.totals().items()
            },
            "dropped_spans": sum(st["dropped"] for st in self._threads),
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "thread"],
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
