"""Empirical cumulative distribution functions for the figures.

Two implementations share one read API:

- :class:`Cdf` — the exact, materialised form (sorts its samples);
- :class:`StreamingCdf` — an ``update(value)``-style incremental form
  holding one counter per *distinct* value, so memory is O(distinct)
  rather than O(samples). For the discrete axes the paper plots
  (iteration counts, salt lengths, rank buckets) the two are exactly
  equal — same integer arithmetic, same float divisions — which is what
  lets the study report folded record by record equal the one computed
  from whole lists.
"""

from __future__ import annotations

import bisect
import math


class Cdf:
    """An empirical CDF over numeric samples."""

    def __init__(self, samples):
        self.samples = sorted(samples)

    def __len__(self):
        return len(self.samples)

    def fraction_at_or_below(self, value):
        """P(X ≤ value), in [0, 1]."""
        if not self.samples:
            return 0.0
        return bisect.bisect_right(self.samples, value) / len(self.samples)

    def percentile(self, fraction):
        """The smallest sample x with P(X ≤ x) ≥ fraction."""
        if not self.samples:
            raise ValueError("empty CDF")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rank = math.ceil(fraction * len(self.samples))
        return self.samples[max(0, rank - 1)]

    def points(self, max_points=None):
        """(x, P(X ≤ x)) step points suitable for plotting or tabulation."""
        points = []
        n = len(self.samples)
        previous = object()
        for index, value in enumerate(self.samples, start=1):
            if value != previous:
                points.append((value, index / n))
                previous = value
            else:
                points[-1] = (value, index / n)
        return _downsample(points, max_points)

    def series_at(self, xs):
        """The CDF evaluated at each x in *xs* (for fixed-grid tables)."""
        return [(x, self.fraction_at_or_below(x)) for x in xs]


def _downsample(points, max_points):
    """Thin step points to *max_points*, always retaining the final
    ``(max, 1.0)`` step — plain strided indexing drops it, which used to
    truncate every downsampled curve short of 100 %."""
    if max_points is None or len(points) <= max_points:
        return points
    step = len(points) / max_points
    sampled = [points[int(i * step)] for i in range(max_points)]
    sampled[-1] = points[-1]
    return sampled


class StreamingCdf:
    """An exact CDF built incrementally: one counter per distinct value.

    Reads mirror :class:`Cdf` bit-for-bit: ``fraction_at_or_below`` does
    the same ``count / n`` division, ``percentile`` picks the same
    sample. ``update`` is O(log distinct) (sorted-insert on first sight
    of a value, dict increment afterwards).
    """

    def __init__(self, samples=()):
        self._counts = {}
        self._sorted = []  # distinct values, ascending
        self._cumulative = None  # cache: cumulative counts per distinct
        self.n = 0
        for value in samples:
            self.update(value)

    def update(self, value):
        if value in self._counts:
            self._counts[value] += 1
        else:
            self._counts[value] = 1
            bisect.insort(self._sorted, value)
        self.n += 1
        self._cumulative = None
        return self

    def merge(self, other):
        """Fold another :class:`StreamingCdf` into this one."""
        for value, count in other._counts.items():
            if value in self._counts:
                self._counts[value] += count
            else:
                self._counts[value] = count
                bisect.insort(self._sorted, value)
        self.n += other.n
        self._cumulative = None
        return self

    def _cumulative_counts(self):
        if self._cumulative is None:
            total = 0
            cumulative = []
            for value in self._sorted:
                total += self._counts[value]
                cumulative.append(total)
            self._cumulative = cumulative
        return self._cumulative

    def __len__(self):
        return self.n

    def fraction_at_or_below(self, value):
        """P(X ≤ value), equal to :meth:`Cdf.fraction_at_or_below`."""
        if not self.n:
            return 0.0
        position = bisect.bisect_right(self._sorted, value)
        if position == 0:
            return 0.0
        return self._cumulative_counts()[position - 1] / self.n

    def percentile(self, fraction):
        """The smallest sample x with P(X ≤ x) ≥ fraction."""
        if not self.n:
            raise ValueError("empty CDF")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rank = max(1, math.ceil(fraction * self.n))
        position = bisect.bisect_left(self._cumulative_counts(), rank)
        return self._sorted[position]

    def points(self, max_points=None):
        """(x, P(X ≤ x)) step points, one per distinct value."""
        cumulative = self._cumulative_counts()
        points = [
            (value, cumulative[index] / self.n)
            for index, value in enumerate(self._sorted)
        ]
        return _downsample(points, max_points)

    def series_at(self, xs):
        """The CDF evaluated at each x in *xs* (for fixed-grid tables)."""
        return [(x, self.fraction_at_or_below(x)) for x in xs]

    @property
    def samples(self):
        """The sorted sample multiset, materialised on demand.

        O(n) memory — provided for compatibility with exact-:class:`Cdf`
        consumers (benchmarks); the streaming pipeline never calls it.
        """
        out = []
        for value in self._sorted:
            out.extend([value] * self._counts[value])
        return out
