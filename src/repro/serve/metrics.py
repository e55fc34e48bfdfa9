"""Per-route serving counters: requests, latency quantiles, batch sizes.

Pure bookkeeping — no locks, because every mutation happens on the event
loop thread of one worker process.  ``/stats`` snapshots are therefore
per-worker; the benchmark aggregates client-side across workers instead.
"""

from __future__ import annotations

import time

__all__ = ["RouteStats", "ServerMetrics"]

#: ring-buffer size for latency quantiles; big enough for stable p99 on a
#: smoke run, small enough to be free
_RESERVOIR = 8192


def _percentile(sample: list[float], q: float) -> float:
    """The q-quantile (0..1) of ``sample`` by nearest-rank."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class RouteStats:
    """Counters for one request route (op name)."""

    __slots__ = ("requests", "errors", "seconds_total", "_window", "_next")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.seconds_total = 0.0
        self._window: list[float] = []
        self._next = 0

    def record(self, seconds: float, error: bool = False) -> None:
        self.requests += 1
        self.errors += int(error)
        self.seconds_total += seconds
        if len(self._window) < _RESERVOIR:
            self._window.append(seconds)
        else:  # overwrite round-robin: a sliding window of recent requests
            self._window[self._next] = seconds
            self._next = (self._next + 1) % _RESERVOIR
        return None

    def snapshot(self) -> dict:
        mean = self.seconds_total / self.requests if self.requests else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "mean_ms": round(mean * 1000, 4),
            "p50_ms": round(_percentile(self._window, 0.50) * 1000, 4),
            "p99_ms": round(_percentile(self._window, 0.99) * 1000, 4),
        }


class ServerMetrics:
    """All counters one worker process exports on ``/stats``."""

    def __init__(self) -> None:
        self.started = time.time()
        self.connections_total = 0
        self.connections_open = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.batch_failures = 0
        self.last_batch_error = ""
        #: HTTP requests refused before routing (bad request line/headers)
        self.http_rejected = 0
        self._routes: dict[str, RouteStats] = {}

    def route(self, name: str) -> RouteStats:
        stats = self._routes.get(name)
        if stats is None:
            stats = self._routes[name] = RouteStats()
        return stats

    def record_request(self, route: str, seconds: float,
                       error: bool = False) -> None:
        self.route(route).record(seconds, error=error)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        if size > self.max_batch:
            self.max_batch = size

    def record_batch_failure(self, error: BaseException) -> None:
        """Count a batch kernel that raised (every parked request failed)."""
        self.batch_failures += 1
        self.last_batch_error = f"{type(error).__name__}: {error}"

    def snapshot(self) -> dict:
        mean_batch = (self.batched_requests / self.batches
                      if self.batches else 0.0)
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "batching": {
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "mean_batch": round(mean_batch, 3),
                "max_batch": self.max_batch,
                "failures": self.batch_failures,
                "last_error": self.last_batch_error,
            },
            "http_rejected": self.http_rejected,
            "routes": {name: stats.snapshot()
                       for name, stats in self._routes.items()},
        }
