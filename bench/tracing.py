"""Timing wrappers around the package's public functions, for traced runs.

A :class:`Tracer` replaces each wrapped function in every ``treespectra``
module namespace that binds it (``multiplicity_exact`` is bound in
``exact``, ``cli``, ``census`` and the package itself), so a call is seen
whichever module makes it.  Every call opens a span holding its name,
start, end, parent span and request id.  Spans stay in typed arrays until
:meth:`Tracer.write` saves them at the end of the run.

Calls run on one thread, so spans nest: a span's self time is its duration
minus the durations of its direct children, accumulated as each span ends.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

# Public functions timed in a traced run, by package module (layer).
WRAPPED = {
    "trees": ("from_edge_list", "path_between"),
    "census": (
        "free_trees",
        "canonical_levels",
        "canonical_relabel",
        "build_catalog",
        "prufer_count_oracle",
    ),
    "classify": ("classify_m1", "admissible_q", "in_gamma"),
    "exact": ("rational_nullity", "char_poly", "minimal_poly_lambda", "multiplicity_exact"),
    "numeric": ("eigen_symmetric", "cluster_multiplicity", "residual_norm", "numeric_rank"),
    "construct": ("eigenbasis_extremal",),
    "cli": ("main",),
}

LAYERS = tuple(WRAPPED)
NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

_NAMESPACES = ("treespectra",) + tuple(f"treespectra.{mod}" for mod in LAYERS)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.request_id = -1
        self.name = array.array("h")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.request = array.array("q")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, idx: int) -> None:
        span = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append([span, 0.0])
        self.start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        span, covered = self._stack.pop()
        self.end[span] = end
        duration = end - self.start[span]
        self.self_s[self.name[span]] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` spent outside the program to no span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, idx: int, fn):
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the time a consumer spends between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for idx, qualified in enumerate(NAMES):
            mod, fn = qualified.split(".")
            original = getattr(importlib.import_module(f"treespectra.{mod}"), fn)
            originals[id(original)] = (original, self._wrap(idx, original))
        for ns_name in _NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, value = self._patched.pop()
            setattr(ns, attr, value)

    # -- results ----------------------------------------------------------

    def calls_of(self, qualified: str) -> int:
        return self.calls[NAMES.index(qualified)]

    def per_request_counts(self, qualified: str) -> dict[int, int]:
        """Spans of one function, counted by request id."""
        idx = NAMES.index(qualified)
        names = np.frombuffer(self.name, dtype=np.int16)
        requests = np.frombuffer(self.request, dtype=np.int64)
        ids, counts = np.unique(requests[names == idx], return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def main_callers(self) -> dict[str, tuple[str, float]]:
        """For each function, its most frequent parent and that parent's share."""
        names = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
        out = {}
        for idx, qualified in enumerate(NAMES):
            mine = parent_names[names == idx]
            if mine.size == 0:
                continue
            ids, counts = np.unique(mine, return_counts=True)
            best = int(np.argmax(counts))
            caller = NAMES[ids[best]] if ids[best] >= 0 else "(benchmark)"
            out[qualified] = (caller, float(counts[best]) / mine.size)
        return out

    def write(self, path) -> None:
        """Save every span (times relative to the first span) as an .npz file."""
        start = np.frombuffer(self.start, dtype=np.float64)
        origin = float(start[0]) if start.size else 0.0
        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=np.float64) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )
