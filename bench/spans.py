"""Spans around the calls into each ghcs module, recorded from outside.

`Tracer.install` wraps every public function of the library modules and
rebinds each name that refers to one, including names other modules
imported directly (`kernel.overlap`, `dynamics.state`,
`measure.meijer_g_canonical`) and the CLI's command table, so nested calls
become child spans.  Spans live in flat arrays until the run ends.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("specfun", "measure", "states", "kernel", "quantize", "dynamics", "thermal", "cli")
OP_SPAN = "bench.op"


def _size(x) -> int:
    return int(np.size(x))


# Work counters, read from the arguments and result of a finished call:
# name -> (counter suffix, function returning the amount).  states.state
# counts the coefficients of the state it returns, not those of the shorter
# truncations it tried first.
_WORK = {
    "specfun.meijer_g_canonical": ("points", lambda a, kw, r: _size(a[0])),
    "measure.density": ("points", lambda a, kw, r: _size(a[1])),
    "measure.radial_rule": ("nodes", lambda a, kw, r: r.n_nodes),
    "measure.verify_identity": ("refined", lambda a, kw, r: int(r.diagnosis is not None)),
    "states.state": ("coeffs", lambda a, kw, r: r.n_max + 1),
    "kernel.gram_matrix": ("entries", lambda a, kw, r: len(a[1]) * (len(a[1]) + 1) // 2),
}

# Calls whose argument keys are tallied for distinct_ratio (distinct keys per
# call): a ratio below 1 is work rebuilt for inputs already seen.
_KEYS = {
    "measure.radial_rule": lambda a, kw: (a[0], a[1] if len(a) > 1 else kw.get("n_nodes")),
    "states.state": lambda a, kw: (a[0], complex(a[1]), a[2] if len(a) > 2 else kw.get("n_max")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self.work: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.ok.append(1)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if not ok:
            self.ok[idx] = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` (used for the op root span)."""
        idx = self._open(self._id(name))
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self._close(idx, ok)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        work = _WORK.get(name)
        stat = f"{name}.{work[0]}" if work else None
        key = _KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(idx, ok)
            if work is not None:
                tracer.work[stat] = tracer.work.get(stat, 0) + work[1](args, kwargs, out)
            if key is not None:
                tracer.keys.setdefault(name, set()).add(key(args, kwargs))
            return out

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ghcs.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            self._restore.append((obj, k, v))
                            obj[k] = wrapped[id(v)]

    def uninstall(self) -> None:
        for table, key, obj in reversed(self._restore):
            table[key] = obj
        self._restore.clear()

    # -----------------------------------------------------------------------
    # Derived numbers
    # -----------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        return dur - child

    def per_function(self) -> dict[str, dict[str, float]]:
        """name -> {calls, errors, self_s}, for every span name seen."""
        a = self.arrays()
        self_s = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "errors": int((a["ok"][sel] == 0).sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer number the benchmark reports, zero where unused."""
    fn = tracer.per_function()
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(v["self_s"] for k, v in fn.items() if k.startswith(mod + "."))
    for name, stats in fn.items():
        for stat, value in stats.items():
            out[f"{name}.{stat}"] = value
    out.update(tracer.work)
    for name, keys in tracer.keys.items():
        out[f"{name}.distinct_ratio"] = len(keys) / fn[name]["calls"]
    return out
