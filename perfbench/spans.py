"""Call spans around named functions, recorded from outside the program.

A Tracer replaces each named function by a wrapper that records one span per
call: which function, which span was open when it was called, and when it
started and ended.  Spans are kept in memory in flat arrays and summarised
only after the traced body has finished.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records spans for the functions named by ``install``."""

    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.absent: list[str] = []
        self.rss_steps: dict[str, list[float]] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def install(self, qualnames, rss_names=()) -> None:
        """Wrap ``module.function`` names of the package.

        Each wrapper is bound in the defining module and in every package
        module that imported the function by name, so calls through either
        binding are seen.  A name that does not resolve to a function is
        recorded in ``absent`` instead.  Functions in ``rss_names`` also
        record by how much each call raised the process's peak RSS.
        """
        for qual in qualnames:
            module_name, _, attr = qual.rpartition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(qual)
                continue
            wrapper = self._wrap(qual, fn, qual in rss_names)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", None) or ""
                if mod_name != self.package and not mod_name.startswith(self.package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, qual: str, fn, track_rss: bool):
        name_id = len(self.names)
        self.names.append(qual)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if not track_rss:
            return traced
        steps = self.rss_steps.setdefault(qual, [])

        @functools.wraps(fn)
        def traced_rss(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                return traced(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                steps.append((after - before) / 1024.0)  # ru_maxrss is in KiB on Linux

        return traced_rss

    def summary(self) -> dict:
        """Per function: calls, inclusive and self seconds, per-call durations.

        Self time is a span's duration minus the durations of its direct
        child spans.  ``top_level_s`` sums the spans opened while no other
        traced span was open.
        """
        ids = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=ids.size)
        self_t = dur - child
        per_name = {}
        for name_id, name in enumerate(self.names):
            mask = ids == name_id
            per_name[name] = {"calls": int(mask.sum()), "self_s": float(self_t[mask].sum()),
                              "incl_s": float(dur[mask].sum()), "durations": dur[mask]}
        return {"functions": per_name, "top_level_s": float(dur[~nested].sum()),
                "absent": list(self.absent), "rss_steps": self.rss_steps}
