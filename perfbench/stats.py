"""Percentiles with an honest sample count, and open-loop client timing."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float, *, min_beyond: int = 10) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond its rank.

    The rank is ``ceil(q * n)`` (1-based), so ``n - rank`` samples are
    larger than the returned one.  A tail percentile read off too few
    samples is mostly the maximum, so it is refused instead of reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return float(sorted(values)[rank - 1])


def highest_percentile(
    values: Sequence[float],
    candidates: Sequence[float] = (0.99, 0.95, 0.9, 0.75, 0.5),
    *,
    min_beyond: int = 10,
) -> tuple[float, float] | None:
    """``(q, value)`` for the highest candidate ``q`` with at least
    ``min_beyond`` samples beyond it, or ``None``."""
    for q in sorted(candidates, reverse=True):
        value = percentile(values, q, min_beyond=min_beyond)
        if value is not None:
            return q, value
    return None


@dataclass
class OpenLoop:
    """Send requests on a fixed schedule, whatever the system's state.

    ``due[i]`` is when request ``i`` should be sent; ``sent[i]`` when the
    generator actually started sending it.  Latency is measured from the
    due time, so a stall in the generator (or in a slow ``send``) is
    charged to every request it delayed.
    """

    due: list[float]
    clock: Callable[[], float] = time.perf_counter
    sleep: Callable[[float], None] = time.sleep
    sent: list[float] = field(default_factory=list)

    @classmethod
    def at_rate(cls, start: float, rate: float, n: int, **kw) -> "OpenLoop":
        return cls([start + i / rate for i in range(n)], **kw)

    def run(self, send: Callable[[int], None]) -> None:
        for i, due in enumerate(self.due):
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            self.sent.append(self.clock())
            send(i)

    @property
    def late_max(self) -> float:
        """Worst delay between a request's due time and its send."""
        return max((s - d for s, d in zip(self.sent, self.due)), default=0.0)

    def latencies(self, done: Sequence[float]) -> list[float]:
        """Due-to-completion time of each request."""
        return [t - d for t, d in zip(done, self.due)]
