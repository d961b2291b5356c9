"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every public function, and the ``__init__``,
``__call__`` and public methods of every public class, of the traced
modules by a wrapper that records a span (name, start, end, parent, op id)
while an op is open.  Outside an op the wrappers only forward the call.
Spans live in compact arrays and are written out once, at the end of a run.
``uninstall`` puts every original object back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "wpgibbs"
LAYERS = ("beta", "cases", "special", "kstar", "rates", "finite", "samplers", "config", "cli")
# the CLI writes its JSON metadata through this helper
LAYER_OF = {"samplers.write_metadata": "cli"}
# self time of spans below these roots (same layer, innermost root wins) is
# reported per bucket
BUCKET_ROOTS = {
    "kstar.conjugate": "kstar.conjugate",
    "kstar.compose_mwg": "kstar.compose",
    "rates.RateBound.__init__": "rates.build",
    "rates.RateBound.rate_bound": "rates.curve",
    "rates.RateBound.curve": "rates.curve",
    "rates.RateBound.write_csv": "rates.curve",
    "rates.RateBound.F_inv": "rates.curve",
    "rates.RateBound.F": "rates.curve",
    "finite.random_joint_model": "finite.model",
    "finite.FiniteJointModel.__init__": "finite.model",
    "finite.verify_identities": "finite.identities",
    "finite.FiniteJointModel.component_gaps": "finite.gaps",
    "finite.spectral_gap": "finite.gaps",
    "finite.verify_bound_domination": "finite.domination",
    "samplers.nig_step": "samplers.step",
    "samplers.bayes_step": "samplers.step",
    "samplers.ou_da_step": "samplers.step",
    "samplers.finite_simulate": "samplers.step",
    "samplers.nig_decay_estimate": "samplers.estimate",
    "samplers.finite_decay_estimate": "samplers.estimate",
}
HARNESS = "harness.op"


def _size(x) -> int:
    return int(np.size(x))


def _count_clamped(k, clamped_type) -> int:
    if k is None:
        return 0
    own = 1 if isinstance(k, clamped_type) else 0
    children = (getattr(k, name, None) for name in ("child", "outer", "inner"))
    return own + sum(_count_clamped(ch, clamped_type) for ch in children)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list = []
        self.op_id = -1
        self.counters: dict = {}
        self.rate_bounds: list = []
        self._saved: list = []
        self._hooks = self._make_hooks()

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        public = not mname.startswith("_") or mname in ("__init__", "__call__")
                        if public and inspect.isfunction(meth):
                            wrapped = self._wrap(f"{layer}.{obj.__qualname__}.{mname}", meth)
                            self._saved.append((obj, mname, meth))
                            setattr(obj, mname, wrapped)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported from another module of the package
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._root = self._open(self._intern(HARNESS))

    def end_op(self) -> None:
        self._close(self._root)
        self.op_id = -1
        self.count("rates.saturated", sum(bool(rb.saturated) for rb in self.rate_bounds))
        self.rate_bounds.clear()

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _make_hooks(self):
        def points(key):
            return lambda args, result: self.count(key, _size(args[1]))

        def conjugate(args, result):
            from wpgibbs.kstar import GridKStar
            self.count("kstar.conjugate_numeric", isinstance(result, GridKStar))

        def compose(args, result):
            from wpgibbs.kstar import Clamped
            self.count("kstar.guards_inserted", _count_clamped(result, Clamped))

        def rate_bound_built(args, result):
            rb = args[0]
            self.count("rates.numeric", rb._table is not None)
            self.rate_bounds.append(rb)

        def joint_model(args, result):
            self.count("finite.joint_states", args[0].nx * args[0].ny)

        def steps(n):
            return lambda args, result: self.count("samplers.chain_steps", n(args))

        return {
            "beta.BetaSpec.__call__": points("beta.points"),
            "beta.MonteCarloMixture.__call__": points("beta.points"),
            "kstar.KStarFn.__call__": points("kstar.eval_points"),
            "kstar.conjugate": conjugate,
            "kstar.compose_mwg": compose,
            "rates.RateBound.__init__": rate_bound_built,
            "finite.FiniteJointModel.__init__": joint_model,
            "samplers.nig_step": steps(lambda a: _size(a[0])),
            "samplers.bayes_step": steps(lambda a: 1),
            "samplers.ou_da_step": steps(lambda a: 1),
            "samplers.finite_simulate": steps(lambda a: _size(a[1]) * int(a[2])),
        }

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_times(self) -> dict:
        """Per-span name id, layer, bucket, self time, duration and op id;
        layer and bucket are indices into ``layers`` and ``buckets``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        layers = sorted({LAYER_OF.get(nm, nm.split(".", 1)[0]) for nm in self.names})
        buckets = [""] + sorted(set(BUCKET_ROOTS.values()))
        name_layer = np.array([layers.index(LAYER_OF.get(nm, nm.split(".", 1)[0]))
                               for nm in self.names], dtype=np.int32)
        name_bucket = [buckets.index(BUCKET_ROOTS.get(nm, "")) for nm in self.names]
        layer = name_layer[a["name_id"]]
        bucket = np.array(name_bucket, dtype=np.int32)[a["name_id"]]
        # a span without its own bucket root inherits its parent's bucket
        # when both are in one layer; repeat until every chain has resolved
        inherit = np.flatnonzero((bucket == 0) & has_parent)
        inherit = inherit[layer[a["parent"][inherit]] == layer[inherit]]
        parents = a["parent"][inherit]
        while True:
            new = bucket[parents]
            if np.array_equal(new, bucket[inherit]):
                break
            bucket[inherit] = new
        return {"name_id": a["name_id"], "layer": layer, "bucket": bucket,
                "layers": layers, "buckets": buckets, "self": dur - covered,
                "dur": dur, "op": a["op"], "root": ~has_parent}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
