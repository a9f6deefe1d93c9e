"""Spans and counters around each layer's public functions, from outside the program.

`install` replaces functions on the modules that call them (for example
``hmt.limits.volume_exact`` and ``hmt.cli.volume_exact``) with wrappers
that record a span (name, start, end, parent) per call, plus counters.
Nothing is installed in an untraced run.  `summarize` turns the spans of
one operation into per-layer totals and self times.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module attribute path, span name); a function is wrapped where its
# callers look it up, so calls between modules are all seen
TRACED = (
    ("cli.main", "cli.main"),
    ("cli.enumerate_words", "words.enumerate_words"),
    ("limits.enumerate_words", "words.enumerate_words"),
    ("cli.height", "words.height"),
    ("limits.height", "words.height"),
    ("cli.is_irreducible", "words.is_irreducible"),
    ("limits.is_irreducible", "words.is_irreducible"),
    ("cli.is_noncrossing", "words.is_noncrossing"),
    ("cli.build_system", "volumes.build_system"),
    ("limits.build_system", "volumes.build_system"),
    ("cli.volume_exact", "volumes.volume_exact"),
    ("limits.volume_exact", "volumes.volume_exact"),
    ("cli.volume_mc", "volumes.volume_mc"),
    ("limits.volume_mc", "volumes.volume_mc"),
    ("cli.moment_table", "limits.moment_table"),
    ("limits.limit_moment", "limits.limit_moment"),
    ("free_cumulants", "limits.free_cumulants"),
    ("cumulants_to_moments", "limits.cumulants_to_moments"),
    ("moments_to_cumulants", "limits.moments_to_cumulants"),
    ("cli.sample_matrix", "ensembles.sample_matrix"),
    ("cli.empirical_spectrum", "spectra.empirical_spectrum"),
    ("cli.spectral_norm", "spectra.spectral_norm"),
    ("spectra.eigvalsh", "spectra.eigvalsh"),
    ("cli.histogram", "spectra.histogram"),
)


class Tracer:
    """Spans and counters of one operation, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, hmt) -> None:
        for path, name in TRACED:
            owner = hmt
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def _count_words(counters, args, result):
    counters["words.words_enumerated"] += len(result)


def _count_mc(counters, args, result):
    if result.method == "mc":
        counters["volumes.mc_draws"] += result.samples


def _count_orders(counters, args, result):
    counters["limits.orders_computed"] += 1


def _count_table(counters, args, result):
    counters["limits.orders_emitted"] += sum(1 for order in result.entries if order >= 2)


def _count_sample(counters, args, result):
    counters["ensembles.entries"] += result.n * result.n


def _count_norm(counters, args, result):
    counters["spectra.norm_eigenvalues_used"] += 2
    counters["spectra.norm_eigenvalues_computed"] += len(args[0])


_COUNTERS = {
    "words.enumerate_words": _count_words,
    "volumes.volume_mc": _count_mc,
    "limits.limit_moment": _count_orders,
    "limits.moment_table": _count_table,
    "ensembles.sample_matrix": _count_sample,
    "spectra.spectral_norm": _count_norm,
}


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
