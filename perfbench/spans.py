"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :meth:`Tracer.install`
replaces a function at the name a consumer module imported it under
(for example ``waist_optimizer.compute_xi``) with a timing wrapper, and
:meth:`Tracer.uninstall` puts the originals back.  Because package code
looks those names up in its module globals at call time, a wrapped name
sees every call the consumer makes, with no change to the package.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans inside a root span
(one workload repetition) add up to the root's wall time.  Spans are
aggregated per name as they close; the per-call records are not kept.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "harness"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def reset(self):
        """Forget the aggregates; installed spans stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; ``name`` may be a function of the arguments."""
        label = name(*args, **kwargs) if callable(name) else name
        child = [0.0]
        self._stack.append(child)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.self_s[label] += elapsed - child[0]
            self.calls[label] += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    def install(self, module, attr, name, on_result=None):
        """Wrap ``module.attr`` in a span named ``name``.

        ``on_result(counts, args, kwargs, result)`` may add counts from
        the call's arguments and result.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
