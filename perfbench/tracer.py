"""Outside-in span recorder for the robustprec package.

`install()` wraps every public function of each robustprec module (and the
public methods of `PosteriorModel`) without touching the package source:
each wrapper replaces every module-global reference to the original in
`robustprec` and `robustprec.*`, so a function imported into several
modules (e.g. `mm_full` into `mm_precoder`, `evaluation` and `cli`) is
traced wherever it is called from.

Every call becomes one span: (name, parent span, start, end, self time),
where self time is the span's duration minus the durations of its direct
child spans.  Spans stay in memory until `Recorder.dump()`.  Solver
counters are read from the values the wrapped functions return
(`DEState.iterations`, `MMReport.updates/converged`,
`BeamState.iterations`, `ExperimentResult.failed_slots`), and
`NumericalError`s escaping a wrapped call are counted once each, on the
layer of the innermost wrapped function they escaped from.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("config", "channel", "posterior", "operators", "det_equiv",
          "mm_precoder", "beam_domain", "baselines", "evaluation", "matio",
          "cli")
TRACED_CLASSES = {"posterior": ("PosteriorModel",)}


def _snake(name):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _on_de_state(rec, args, kwargs, out):
    rec.counters["det_equiv.sweeps"] += out.iterations


def _on_mm_report(rec, args, kwargs, out):
    rec.counters["mm_precoder.updates"] += out.updates
    rec.counters["mm_precoder.reports"] += 1
    rec.counters["mm_precoder.converged"] += bool(out.converged)


def _on_beam_state(rec, args, kwargs, out):
    rec.counters["beam_domain.sweeps"] += out.iterations


def _on_experiment(rec, args, kwargs, out):
    rec.counters["evaluation.failed_slots"] += len(out.failed_slots)


def _mc_sampler(fn):
    sig = inspect.signature(fn)

    def hook(rec, args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        draws = int(bound.arguments["n_samples"]) * bound.arguments["posterior"].n_users
        rec.counters["evaluation.mc_samples"] += draws
    return hook


# name -> hook(recorder, args, kwargs, return value), run after the call
_HOOKS = {
    "det_equiv.solve_fixed_point": lambda fn: _on_de_state,
    "mm_precoder.mm_full": lambda fn: _on_mm_report,
    "mm_precoder.mm_shared": lambda fn: _on_mm_report,
    "beam_domain.beam_fixed_point": lambda fn: _on_beam_state,
    "evaluation.run_slot_experiment": lambda fn: _on_experiment,
    "evaluation.monte_carlo_rate": _mc_sampler,
}


class Recorder:
    """Collects spans and counters of one traced process."""

    def __init__(self):
        self.names = []       # span name table; spans refer to it by index
        self.spans = []       # (name index, parent span or -1, start, end, self)
        self.counters = Counter()
        self._stack = []      # (span id, [child time]) of the open spans
        self._errors = []     # exceptions already counted (kept alive)
        self._numerical = None

    def wrap(self, fn, name):
        """Wrapper recording one span per call of fn under `name`."""
        key = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = _HOOKS[name](fn) if name in _HOOKS else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            child = [0.0]
            stack.append((sid, child))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except self._numerical as exc:
                self._count_error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1][0] += end - start
                spans[sid] = (key, parent, start, end, end - start - child[0])
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    def _count_error(self, layer, exc):
        if any(seen is exc for seen in self._errors):
            return
        self._errors.append(exc)
        self.counters[f"{layer}.{_snake(type(exc).__name__)}s"] += 1
        self.counters["trace.numerical_errors"] += 1

    def install(self):
        """Wrap the package in place, for the rest of the process."""
        from robustprec.errors import NumericalError

        self._numerical = NumericalError
        modules = {layer: importlib.import_module(f"robustprec.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        holders = [m for n, m in sys.modules.items()
                   if n == "robustprec" or n.startswith("robustprec.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for layer, classes in TRACED_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        setattr(cls, attr,
                                self.wrap(obj, f"{layer}.{cls_name}.{attr}"))

    def summary(self):
        """Per-function calls/total/self time and per-layer self time."""
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for key, _, start, end, self_s in self.spans:
            calls[key] += 1
            total[key] += end - start
            own[key] += self_s
        functions = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for key, name in enumerate(self.names):
            functions[name] = {"calls": calls[key], "total_s": total[key],
                               "self_s": own[key]}
            layers[name.split(".", 1)[0]] += own[key]
        return {"functions": functions, "layer_self_s": layers,
                "counters": dict(self.counters), "n_spans": len(self.spans)}

    def dump(self, path):
        """Write every span (columnar) plus the counters to a JSON file."""
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start_s", "end_s",
                                   "self_s"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, f)
