"""Spans around the program's public functions, for the traced run only.

`Tracer.install` replaces each function named in `TRACED` wherever a module of
`scei` binds it, so a caller that imported the name (`harness` imports
`evaluate`, `node` imports `sgd_train` and `mix`) reaches the wrapper too;
`Ledger` methods are wrapped on the class. `Tracer.restore` puts every
original back, so untraced runs execute the program's own functions.

Spans live in flat arrays until `write` dumps them as JSON lines. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
import types
from array import array

import numpy as np

TRACED = {
    "model": ("loss_and_grad", "sgd_train", "evaluate", "init_params"),
    "data": ("generate_synthetic", "partition_non_iid"),
    "node": ("local_round", "evaluate_candidates", "apply_alpha"),
    "contract": (
        "fed_avg",
        "model_diffs",
        "detect_anomalies",
        "update_suspicions",
        "robust_aggregate",
        "negotiate_alpha",
        "mix",
    ),
    "ledger": (
        "Ledger.append",
        "Ledger.query_round",
        "encode_params",
        "decode_params",
        "Ledger.to_bytes",
        "Ledger.write_dump",
        "verify_dump_bytes",
        "Ledger.read_dump",
        "Ledger.verify_chain",
    ),
    "harness": ("run_experiment", "write_csv"),
}

# counts recorded beside the spans, all in MB except the record count
COUNTS = {
    "ledger.append_mb": "MB",  # payload passed to Ledger.append
    "ledger.held_payload_mb": "MB",  # byte buffers reachable from a returned Ledger, largest seen
    "ledger.records": "count",  # records of the ledgers run_experiment returned
    "ledger.dump_mb": "MB",  # dump bytes written
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

_SCEI_MODULES = ("scei", "scei.model", "scei.data", "scei.node", "scei.contract", "scei.ledger", "scei.harness")

MB = 1e6


def per_layer_names() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for span in SPAN_NAMES:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update(COUNTS)
    names["tracing.overhead_s"] = "s"
    return names


class Tracer:
    """Records nested spans of the wrapped functions of one process."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._child_s = []
        self._saved = []

    def _wrap(self, name_id: int, fn):
        def traced(*args, **kwargs):
            span = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(name_id)
            self.end.append(0.0)
            self._stack.append(span)
            self._child_s.append(0.0)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.end[span] = end
                self._stack.pop()
                duration = end - self.start[span]
                self.calls[name_id] += 1
                self.self_s[name_id] += duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration

        return traced

    def _count_append(self, append):
        def counted(ledger, round_no, kind, node_id, payload):
            self.counts["ledger.append_mb"] += len(payload) / MB
            return append(ledger, round_no, kind, node_id, payload)

        return counted

    def install(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in _SCEI_MODULES]
        for name_id, span in enumerate(SPAN_NAMES):
            layer, _, attr = span.partition(".")
            home = importlib.import_module(f"scei.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if span == "ledger.Ledger.append":
                    fn = self._count_append(fn)
                wrapper = self._wrap(name_id, fn)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def note_result(self, ledger, dump_bytes: int) -> None:
        """Counts taken from a Ledger that run_experiment returned and its dump."""
        self.counts["ledger.records"] += len(ledger)
        held = reachable_buffer_bytes(ledger) / MB
        self.counts["ledger.held_payload_mb"] = max(self.counts["ledger.held_payload_mb"], held)
        self.counts["ledger.dump_mb"] += dump_bytes / MB

    def stats(self) -> dict:
        out = {}
        for name_id, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = self.calls[name_id]
            out[f"{span}.self_s"] = self.self_s[name_id]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i in range(len(self.start)):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parent[i],
                            "name": SPAN_NAMES[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                        }
                    )
                    + "\n"
                )


def bindings() -> dict:
    """Every name the program's modules and the Ledger class bind right now."""
    found = {}
    for name in _SCEI_MODULES:
        for key, value in vars(importlib.import_module(name)).items():
            found[(name, key)] = value
    for key, value in vars(importlib.import_module("scei.ledger").Ledger).items():
        found[("Ledger", key)] = value
    return found


def same_bindings(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def reachable_buffer_bytes(root) -> int:
    """Bytes of the bytes-like buffers and arrays an object graph holds."""
    seen = set()
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, memoryview):
            total += obj.nbytes
        elif isinstance(obj, np.ndarray):
            total += obj.nbytes if obj.base is None else 0
            todo.append(obj.base)
        else:
            todo.extend(gc.get_referents(obj))
    return total
