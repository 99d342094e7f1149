"""Outside-in tracer: spans around the calls into each guidance-lab module.

``Tracer.install()`` replaces, from the outside, every public function of
each module and every public method of the classes defined there with a
wrapper that records a span; ``uninstall()`` puts the originals back, so
untraced rounds run the unmodified program.  Also wrapped:

* names re-bound by import (``sampler.apply_guidance``), with the span
  attributed to the module that defines the function;
* ``GaussianMixture.__init__`` (build counts), ``VectorField.__call__``,
  ``cli._write_json`` (JSON artifact writes, next to ``Table.write_csv``);
* the entries of the CLI's runner table, which hold function references
  taken at import time.

A span is (name, start, end, parent, job id).  Spans live in flat arrays
in memory and are written out once, by ``save``, when the run ends.  A
span's self time is its duration minus the durations of its child spans,
so the self times of all spans under a job's root span add up to the
root's duration exactly.
"""

from __future__ import annotations

import enum
import functools
import inspect
import os
import time
from array import array

import numpy as np

# Layers are modules; the CLI layer also holds config parsing and tables.
LAYER_OF_MODULE = {
    "schedule": "schedule",
    "mixture": "mixture",
    "guidance": "guidance",
    "divergence": "divergence",
    "sampler": "sampler",
    "metrics": "metrics",
    "cli": "cli",
    "config": "cli",
    "tables": "cli",
}
LAYERS = ("mixture", "guidance", "divergence", "sampler", "metrics", "schedule",
          "cli")

# Module-level oracle entry points of the mixture module: (target,
# schedule, t, x).  Only the outermost call of a nest is counted.
ORACLES = ("log_density", "score", "hessian_log_density",
           "laplacian_log_density", "posterior", "velocity")

_EXTRA = {
    "mixture": {"GaussianMixture": ("__init__",)},
    "guidance": {"VectorField": ("__call__",)},
}
_PRIVATE = {"cli": ("_write_json",)}


def _rows(x):
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {short: getattr(package, short) for short in LAYER_OF_MODULE}
        self.names = []
        self.name_ids = {}
        self.layer_of = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_col = array("i")
        self.job_col = array("i")
        self.stack = []
        self.job = [-1]
        self.counters = {}
        self._saved = []
        self._wrappers = {}

    # -- wrapping ----------------------------------------------------------------

    def _name_id(self, name, layer):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
        return self.name_ids[name]

    def _wrap(self, fn, name, layer):
        if fn in self._wrappers:
            return self._wrappers[fn]
        nid = self._name_id(name, layer)
        hook = self._hook_for(name)
        stack, starts, ends = self.stack, self.starts, self.ends
        parents, name_col, job_col, job = (
            self.parents, self.name_col, self.job_col, self.job)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(starts)
            parents.append(parent)
            name_col.append(nid)
            job_col.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public entry point of every traced module."""
        for short, module in self.modules.items():
            layer = LAYER_OF_MODULE[short]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and (
                        not attr.startswith("_") or attr in _PRIVATE.get(short, ())):
                    package, _, home = value.__module__.rpartition(".")
                    if package != self.package.__name__ or home not in LAYER_OF_MODULE:
                        continue
                    name = f"{home}.{value.__name__}"
                    self._set(module, attr,
                              self._wrap(value, name, LAYER_OF_MODULE[home]))
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and not issubclass(value, (enum.Enum, BaseException))):
                    self._wrap_class(short, layer, value)
        runners = self.modules["cli"]._RUNNERS
        for kind, runner in list(runners.items()):
            self._saved.append((runners, kind, runner))
            runners[kind] = self._wrappers.get(runner, runner)

    def _wrap_class(self, short, layer, cls):
        extra = _EXTRA.get(short, {}).get(cls.__name__, ())
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self._wrap(value.__func__, name, layer)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, name, layer))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- counters kept by hooks ------------------------------------------------------

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _parent_name(self, parent):
        return self.names[self.name_col[parent]] if parent >= 0 else ""

    def _hook_for(self, name):
        module, _, func = name.partition(".")
        if module == "mixture" and func in ORACLES:
            def oracle(args, kwargs, result, parent):
                outer = self._parent_name(parent)
                if not (outer.startswith("mixture.") and outer[8:] in ORACLES):
                    self._count("mixture.oracle_calls")
                    self._count("mixture.oracle_points", _rows(_arg(args, kwargs, 3, "x")))
            return oracle
        if name == "mixture.GaussianMixture.__init__":
            def build(args, kwargs, result, parent):
                if self._parent_name(parent) == "mixture.marginal_at":
                    self._count("mixture.marginal_builds")
            return build
        if name == "guidance.apply_guidance":
            return lambda a, k, r, p: self._count(
                "guidance.apply_rows", _rows(_arg(a, k, 2, "x")))
        if name == "divergence.divergence_profile":
            return lambda a, k, r, p: self._count(
                "divergence.profile_cells",
                len(_arg(a, k, 0, "fields")) * len(_arg(a, k, 1, "trajectory").times))
        if name == "divergence.divergence_hutchinson":
            return lambda a, k, r, p: self._count(
                "divergence.hutchinson_probes", _arg(a, k, 3, "config").probes)
        if name == "sampler.integrate":
            return lambda a, k, r, p: self._count(
                "sampler.state_steps", _arg(a, k, 4, "sampler_config").steps)
        if name == "sampler.batch_integrate":
            return lambda a, k, r, p: self._count(
                "sampler.state_steps",
                _arg(a, k, 0, "count") * _arg(a, k, 4, "sampler_config").steps)
        if name == "metrics.permutation_test":
            return self._permutation_hook
        if name in ("tables.Table.write_csv", "cli._write_json"):
            return lambda a, k, r, p: self._count(
                "cli.bytes_written", os.path.getsize(_arg(a, k, 1, "path")))
        return None

    def _permutation_hook(self, args, kwargs, result, parent):
        """Computed memory traffic of the permutation null, by code path."""
        bound = inspect.signature(self.modules["metrics"].permutation_test).bind(
            *args, **kwargs)
        bound.apply_defaults()
        n = np.shape(bound.arguments["a"])[0]
        m = np.shape(bound.arguments["b"])[0]
        n_perm = int(bound.arguments["n_perm"])
        self._count("metrics.permutations", n_perm)
        limit = getattr(self.modules["metrics"], "_POOLED_MATRIX_LIMIT", None)
        if limit is None or n + m <= limit:
            self._count("metrics.pooled_bytes", 8 * (n + m) ** 2)
            self._count("metrics.gathered_bytes", n_perm * 8 * (n * n + m * m))
        else:
            pairs = n * m + n * (n - 1) // 2 + m * (m - 1) // 2
            self._count("metrics.recomputed_pairs", n_perm * pairs)

    # -- reduction ----------------------------------------------------------------

    def span_arrays(self):
        ends = np.frombuffer(self.ends, dtype=float)
        starts = np.frombuffer(self.starts, dtype=float)
        return (np.frombuffer(self.name_col, dtype=np.int32),
                np.frombuffer(self.parents, dtype=np.int32), starts, ends,
                np.frombuffer(self.job_col, dtype=np.int32))

    def summary(self):
        """Per-name counts, inclusive and self seconds, plus per-layer self
        seconds and the summed duration of root spans."""
        names, parents, starts, ends, _ = self.span_arrays()
        dur = ends - starts
        n_names = len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        layer_self = np.bincount(layer_of[names], weights=self_time,
                                 minlength=len(LAYERS))
        per_name = {
            name: {
                "count": int(c), "incl_s": float(i), "self_s": float(s),
            }
            for name, c, i, s in zip(
                self.names,
                np.bincount(names, minlength=n_names),
                np.bincount(names, weights=dur, minlength=n_names),
                np.bincount(names, weights=self_time, minlength=n_names),
            )
        }
        # Spans of a group whose parent lies outside the group: the group's
        # wall time without double counting nested calls.
        config_ids = [i for i, name in enumerate(self.names) if name.startswith("config.")]
        in_config = np.isin(names, config_ids)
        parent_in_config = np.zeros_like(in_config)
        parent_in_config[has_parent] = in_config[parents[has_parent]]
        return {
            "per_name": per_name,
            "layer_self_s": dict(zip(LAYERS, (float(v) for v in layer_self))),
            "root_s": float(dur[~has_parent].sum()),
            "config_outer_s": float(dur[in_config & ~parent_in_config].sum()),
            "counters": dict(self.counters),
            "spans": int(len(dur)),
        }

    def save(self, path):
        names, parents, starts, ends, jobs = self.span_arrays()
        np.savez(path, name=names, parent=parents, start=starts, end=ends, job=jobs,
                 names=np.array(self.names), layer=np.array(
                     [LAYERS[i] for i in self.layer_of]))
