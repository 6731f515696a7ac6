"""Span tracer that wraps the public callables of the stackedmin layers.

Each public function of a layer module, and each public method of a
public class defined there, is replaced by a wrapper at every place its
name is bound: the module itself, every module that imported it with
``from ... import``, and the class dictionary for methods.  Patching one
module alone would miss most calls, because `opening`, `solver` and
`immersion` bind `zeta` and friends into their own namespaces.

Every wrapped call records one span: function id, parent span, start,
end, an optional amount (points evaluated, tori refreshed, ...), and two
flags saying whether it is the outermost frame of its layer and of its
function.  Spans are kept in flat arrays and self times are computed from
them after the run.  `restore()` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("elliptic", "hecke", "opening", "solver", "immersion", "asymptotics")
PACKAGE = "stackedmin"

OUTER_LAYER = 1
OUTER_FN = 2


def _public_callables(module):
    """(owner, attribute, qualname, function) for every public callable
    the layer module defines; classes contribute their own methods."""
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    out.append((obj, attr, f"{name}.{attr}", member))
                elif inspect.isfunction(member):
                    out.append((obj, attr, f"{name}.{attr}", member))
        elif callable(obj):
            out.append((module, name, name, obj))
    return out


class Tracer:
    """Wraps the layer modules while active; records spans in memory.

    amount_for(name, function) returns None or a hook
    (args, kwargs, result) -> float whose value is stored with each span of
    that function; name is the span name, e.g. "opening.GluingState.refresh".
    """

    def __init__(self, amount_for=None):
        self.amount_for = amount_for or (lambda name, fn: None)
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fn = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.amount = array("d")
        self.flags = array("b")

    # ------------------------------------------------------------------
    # patching

    def install(self):
        """Wrap every public callable of every layer at every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}  # id(original) -> wrapper
        for lid, layer in enumerate(LAYERS):
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for owner, attr, qualname, obj in _public_callables(module):
                fid = len(self.names)
                self.names.append(f"{layer}.{qualname}")
                self.layer_of.append(lid)
                wrapper = self._wrap(obj, fid, lid)
                self._patch(owner, attr, obj, wrapper)
                if owner is module:
                    targets[id(obj)] = (obj, wrapper)
        # rebind names imported into other modules, this package and
        # the benchmark's own modules alike
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
        self.layer_depth = [0] * len(LAYERS)
        self.fn_depth = [0] * len(self.names)
        self.stack: list[int] = []
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every original object; raise if any binding differs."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        patched, self._patches = self._patches, []
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patched
               if vars(o).get(a) is not orig]
        bad += self.leftovers()
        if bad:
            raise RuntimeError(f"wrapped names not restored: {bad}")

    @staticmethod
    def leftovers():
        """Places in loaded modules or layer classes still bound to a wrapper."""
        out = []
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__traced__", False):
                    out.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(value) and mod.__name__.startswith(PACKAGE):
                    for m, member in vars(value).items():
                        inner = getattr(member, "__func__", member)
                        if getattr(inner, "__traced__", False):
                            out.append(f"{mod.__name__}.{attr}.{m}")
        return out

    def _wrap(self, obj, fid, lid):
        kind = type(obj) if isinstance(obj, (classmethod, staticmethod)) else None
        fn = obj.__func__ if kind else obj
        amount = self.amount_for(self.names[fid], fn)
        spans_fn, parents, t0s, t1s = self.fn, self.parent, self.t0, self.t1
        amounts, flags = self.amount, self.flags
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            i = len(t0s)
            spans_fn.append(fid)
            parents.append(stack[-1] if stack else -1)
            flags.append((OUTER_LAYER if tracer.layer_depth[lid] == 0 else 0)
                         | (OUTER_FN if tracer.fn_depth[fid] == 0 else 0))
            amounts.append(0.0)
            t1s.append(0.0)
            tracer.layer_depth[lid] += 1
            tracer.fn_depth[fid] += 1
            stack.append(i)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
                tracer.layer_depth[lid] -= 1
                tracer.fn_depth[fid] -= 1
            if amount is not None:
                amounts[i] = amount(args, kwargs, result)
            return result

        traced.__traced__ = True
        return kind(traced) if kind else traced

    # ------------------------------------------------------------------
    # span arithmetic

    def spans(self):
        """Span arrays as numpy: fn, parent, duration, self time, amount, flags."""
        fn = np.frombuffer(self.fn, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "fn": fn,
            "parent": parent,
            "dur": dur,
            "self": dur - child,
            "amount": np.frombuffer(self.amount, dtype=float).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }

    def fn_ids(self, *qualnames):
        """Ids of the named spans ("opening.fix_omega"); unknown names are
        skipped so a renamed function reads as zero, not as an error."""
        index = {n: i for i, n in enumerate(self.names)}
        return [index[q] for q in qualnames if q in index]
