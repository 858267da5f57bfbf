"""Spans recorded from outside the package by wrapping its functions.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the id of the operation it
belongs to. Spans are kept in compact in-memory arrays and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, ops):
        # `ops.attempted` is the id of the operation in progress
        self._ops = ops
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._sample = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = -1

    def wrap(self, name, fn):
        """Return `fn` wrapped so that every call records a span `name`."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            parent = self._open
            self._name.append(nid)
            self._parent.append(parent)
            self._sample.append(self._ops.attempted)
            self._end.append(0.0)
            self._open = idx
            self._start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._open = parent

        return traced

    def _arrays(self):
        # copies, so that recording can go on after a summary
        return (np.array(self._name, dtype=np.intc),
                np.array(self._parent, dtype=np.intc),
                np.array(self._start, dtype=np.float64),
                np.array(self._end, dtype=np.float64))

    def summary(self):
        """Span name -> (calls, total ms, self ms). Self time is a span's
        duration minus the time its child spans cover."""
        name, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - covered, minlength=width)
        return {n: (int(calls[i]), 1e3 * float(total[i]), 1e3 * float(own[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path):
        """Write every span to an .npz file: `names`, and per span `name`
        (index into names), `parent` (span index, -1 for none), `sample`,
        `start` and `end` (perf_counter seconds)."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            sample=np.array(self._sample, dtype=np.intc),
                            start=start, end=end)
