"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the traced varwit
modules, in every varwit namespace that holds it, with a wrapper that
records a span; it also wraps numpy.linalg.eigh/eigvalsh and the
validated constructors. The names are patched where callers look them
up: cli imports the names it calls, and bounds reaches seesaw_bound and
grid_bound through its own module globals. `uninstall()` restores the
originals. Spans are aggregated in memory as they close: a span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("cli", "bounds", "noise", "simulate", "witness", "operators")
VALIDATED_TYPES = {
    "operators": ("HermitianOperator", "PureState", "DensityMatrix", "Povm", "MomentPair"),
    "noise": ("NoiseChannel",),
}
CONSTRUCTION_COUNTERS = {"operators": "operators.constructions", "noise": "noise.channel_constructions"}


def _shots(config, records):
    return records * config.trials * 2 * (config.shots // 2)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()
        self._stack = [["", 0.0]]  # open spans: [name, time covered by children]
        self._patches = []

    def _span(self, name, fn, after=None):
        stack, spans, edges, clock = self._stack, self.spans, self.edges, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans[name]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                edges[parent[0], name] += 1
            return result if after is None else after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hooks(self, varwit):
        counts = self.counts

        def seesaw(args, kwargs, result):
            counts["bounds.seesaw_bound.converged"] += bool(result.converged)
            return result

        def interpolant(args, kwargs, c_of_lambda):
            def counted(lam):
                counts["witness.interp_evals"] += 1
                return c_of_lambda(lam)

            return counted

        sig_cal = inspect.signature(varwit.simulate.run_calibration)
        sig_svt = inspect.signature(varwit.simulate.sample_variance_tuple)

        def calibration(args, kwargs, result):
            bound = sig_cal.bind(*args, **kwargs)
            counts["simulate.shots"] += _shots(bound.arguments["config"], len(result))
            return result

        def sampling(args, kwargs, result):
            bound = sig_svt.bind(*args, **kwargs)
            counts["simulate.shots"] += _shots(bound.arguments["config"], 1)
            return result

        return {
            "bounds.seesaw_bound": seesaw,
            "witness.bound_interpolant": interpolant,
            "simulate.run_calibration": calibration,
            "simulate.sample_variance_tuple": sampling,
        }

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, varwit):
        hooks = self._after_hooks(varwit)
        wrappers = {}
        for short in TRACED_MODULES:
            module = getattr(varwit, short)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = self._span(name, obj, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "varwit" or modname.startswith("varwit.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(module, attr, wrappers[id(obj)])

        for short, classes in VALIDATED_TYPES.items():
            counter = CONSTRUCTION_COUNTERS[short]
            for cls_name in classes:
                cls = getattr(getattr(varwit, short), cls_name)
                self._set(cls, "__post_init__", self._counted(cls.__post_init__, counter))

        for fn_name in ("eigh", "eigvalsh"):
            self._set(np.linalg, fn_name, self._linalg(fn_name, getattr(np.linalg, fn_name)))

    def _counted(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _linalg(self, fn_name, fn):
        counts = self.counts
        calls, matrices = f"linalg.{fn_name}_calls", f"linalg.{fn_name}_matrices"
        span = self._span(f"linalg.{fn_name}", fn)

        def wrapper(a, *args, **kwargs):
            counts[calls] += 1
            counts[matrices] += math.prod(np.shape(a)[:-2])
            return span(a, *args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
