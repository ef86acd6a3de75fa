"""Small statistics helpers: bucketed histograms."""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple


class BucketHistogram:
    """Counts samples into labelled, inclusive integer ranges.

    Used for the paper's Fig 3 ("number of memory accesses for page
    walks per instruction", buckets 1-16, 17-32, ... 81-256).

    Buckets are sorted and disjoint (the constructor raises
    :class:`ValueError` otherwise), so ``add`` locates a sample's bucket
    by binary search over the lower bounds.
    """

    def __init__(self, buckets: Sequence[Tuple[int, int]]) -> None:
        if not buckets:
            raise ValueError("at least one bucket is required")
        # Normalised to tuples so merges compare equal regardless of
        # whether bounds arrived as tuples or (JSON) lists.
        self._buckets = [(low, high) for low, high in buckets]
        previous_high = None
        for low, high in self._buckets:
            if low > high:
                raise ValueError(f"bucket ({low}, {high}) is inverted")
            if previous_high is not None and low <= previous_high:
                raise ValueError(
                    f"buckets must be sorted and disjoint: ({low}, {high}) "
                    f"follows a bucket ending at {previous_high}"
                )
            previous_high = high
        self._lows = [low for low, _ in self._buckets]
        self._counts = [0] * len(buckets)
        self.total = 0
        self.out_of_range = 0

    def add(self, value: int) -> None:
        """Record one sample."""
        self.total += 1
        index = bisect_right(self._lows, value) - 1
        if index >= 0 and value <= self._buckets[index][1]:
            self._counts[index] += 1
        else:
            self.out_of_range += 1

    def merge(self, other: "BucketHistogram") -> None:
        """Fold ``other``'s samples into this histogram in place.

        Both histograms must have been built over identical buckets —
        merging differently-shaped histograms would silently misfile
        counts, so it raises :class:`ValueError` instead.
        """
        if self._buckets != other._buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self._buckets} vs {other._buckets}"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self.total += other.total
        self.out_of_range += other.out_of_range

    @classmethod
    def from_counts(
        cls,
        buckets: Sequence[Tuple[int, int]],
        counts: Sequence[int],
        out_of_range: int = 0,
    ) -> "BucketHistogram":
        """Rebuild a histogram from an exported (buckets, counts) pair.

        The inverse of dumping ``bucket_bounds()``/``counts()`` to JSON,
        used when merging archived per-run registries across a sweep.
        """
        histogram = cls(buckets)
        if len(counts) != len(histogram._counts):
            raise ValueError(
                f"{len(counts)} counts for {len(histogram._counts)} buckets"
            )
        histogram._counts = [int(count) for count in counts]
        histogram.out_of_range = int(out_of_range)
        histogram.total = sum(histogram._counts) + histogram.out_of_range
        return histogram

    def cdf_points(self) -> List[Tuple[int, float]]:
        """The empirical CDF as ``(bucket upper bound, cumulative fraction)``.

        One point per *declared* bucket (empty buckets repeat the
        previous cumulative fraction, keeping the x-axis complete for
        plotting).  Fractions are over in-range samples; a histogram
        with no in-range samples yields all-zero fractions rather than
        raising, so an idle instrument still exports a valid — flat —
        curve.
        """
        in_range = self.total - self.out_of_range
        points: List[Tuple[int, float]] = []
        cumulative = 0
        for (low, high), count in zip(self._buckets, self._counts):
            cumulative += count
            fraction = cumulative / in_range if in_range > 0 else 0.0
            points.append((high, fraction))
        return points

    def bucket_bounds(self) -> List[Tuple[int, int]]:
        """The (low, high) bucket ranges, in declaration order."""
        return [tuple(bucket) for bucket in self._buckets]

    def counts(self) -> List[int]:
        return list(self._counts)

    def fractions(self) -> List[float]:
        """Per-bucket fraction of all recorded samples."""
        if self.total == 0:
            return [0.0] * len(self._buckets)
        return [count / self.total for count in self._counts]

    def labels(self) -> List[str]:
        return [f"{low}-{high}" for low, high in self._buckets]

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self.labels(), self.fractions()))
