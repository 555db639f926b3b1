"""Span tracing at hallalg's public boundaries, installed from outside.

The tracer replaces each listed function with a wrapper that records a span
(name, start, end, parent span, session id). A function imported elsewhere
with ``from ... import`` is replaced under every name that refers to it in
every loaded hallalg module; a method is replaced on its class. Spans stay in
memory until the session ends. Spans are recorded only while ``active`` is
set, so the benchmark's own oracle work does not show up in them.

A span's self time is its duration minus the durations of its direct child
spans. For the cached boundaries the tracer also counts distinct argument
keys, so calls minus distinct is the number of repeated (cacheable) calls.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function or Class.method, count distinct argument keys)
SPANS = (
    ("classical", "hall_poly", True),
    ("quiverrep", "enumerate_iso_classes", True),
    ("quiverrep", "classify_rep", True),
    ("quiverrep", "is_isomorphic", True),
    ("quiverrep", "aut_count", True),
    ("quiverrep", "submodule_type_table", True),
    ("quiverrep", "count_submodules", True),
    ("quiverrep", "rep_from_label", True),
    ("engine", "QuiverAtQ.rep", True),
    ("engine", "QuiverAtQ.hall", True),
    ("engine", "QuiverAtQ.aut", True),
    ("engine", "ClassicalGeneric.hall", True),
    ("engine", "ClassicalGeneric.aut", True),
    ("engine", "multiply", False),
    ("engine", "comultiply", False),
    ("engine", "antipode", False),
    ("engine", "antipode_closed", False),
    ("engine", "antipode_inv", False),
    ("engine", "pairing", False),
    ("engine", "pairing_tensor", False),
    ("verify", "run_suite", False),
    ("serialize", "render_scalar", False),
    ("serialize", "render_element", False),
    ("serialize", "render_tensor", False),
    ("serialize", "render_double", False),
    ("cli", "main", False),
)


def _arg_key(args, kwargs):
    key = args + tuple(sorted(kwargs.items()))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _method_key(args, kwargs):
    return _arg_key((id(args[0]),) + args[1:], kwargs)


class Tracer:
    def __init__(self, session_id: str):
        self.session_id = session_id
        self.spans = []  # [name, start, end, parent index]
        self.active = False
        self._stack = []
        self._keys = defaultdict(set)

    def _wrap(self, name, fn, key_of):
        spans, stack, keys = self.spans, self._stack, self._keys

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                keys[name].add(key_of(args, kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"hallalg.{m}") for m, _, _ in SPANS}
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("hallalg")]
        for mod_name, qual, distinct in SPANS:
            module = modules[mod_name]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                key_of = _method_key if distinct else None
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], key_of))
                continue
            orig = getattr(module, qual)
            wrapper = self._wrap(name, orig, _arg_key if distinct else None)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    def summary(self):
        """{name: {"self_s", "calls", "distinct"?}} for every listed span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for mod, qual, distinct in SPANS:
            entry = {"self_s": 0.0, "calls": 0}
            if distinct:
                entry["distinct"] = len(self._keys.get(f"{mod}.{qual}", ()))
            out[f"{mod}.{qual}"] = entry
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name]["self_s"] += (end - start) - child_time[i]
            out[name]["calls"] += 1
        return out

    def write(self, path):
        """Write the raw spans as compact JSON (one record per span)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "session": self.session_id,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
