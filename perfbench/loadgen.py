"""NDJSON load generator for ``repro-nucleus serve``.

One asyncio process drives the server over two connections.  Open-loop
phases send on a fixed schedule whatever the server's progress
(independent users, not callers waiting for replies); a closed-loop
phase keeps a fixed number of requests in flight.  In the open loop
each request is timed from the moment it was *due*, so a stall charges
every request queued behind it; how late the generator itself ran is
recorded separately as lag.

Each request travels on a fixed lane (connection): small-answer traffic
on one, large-answer traffic on the other, as a client that separates
interactive from bulk requests would.  Mixing them on one stream makes
small answers queue behind the tail of a large one, and the latency then
depends on TCP segment timing rather than on the server.

Every response is checked: the bytes of its ``result`` are hashed and
compared with the hash of the expected answer's compact JSON; a hash
mismatch falls back to parsing and comparing values, so a change of
whitespace alone is not an error.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from tracing import quantile

#: a response line is read whole; large answers are hundreds of KiB
LINE_LIMIT = 1 << 26
#: seconds to wait for the answers of one phase after its last send
DRAIN_S = 15.0
#: connections, one per lane
CONNECTIONS = 2

_OK_RESULT = b',"ok":true,"result":'


def result_hash(fragment: bytes) -> str:
    return hashlib.blake2b(fragment, digest_size=16).hexdigest()


def expected_hash(answer) -> str:
    return result_hash(json.dumps(answer, separators=(",", ":")).encode())


@dataclass
class Phase:
    """What one phase measured."""

    rate: float
    sent: int = 0
    latencies: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    bytes: int = 0
    elapsed: float = 0.0
    #: answers back by the end of a closed-loop phase
    done_by_deadline: int = 0
    #: CPU seconds the generator itself spent on the phase
    cpu: float = 0.0

    @property
    def p99(self) -> float:
        return quantile(self.latencies, 0.99)


class LoadGenerator:
    """Drives one server over :data:`CONNECTIONS` NDJSON connections.

    ``requests`` is the base request list (cycled); ``expected[i]`` is the
    hash of the answer to ``requests[i]`` and ``oracle(i)`` the answer
    itself, used only when a hash does not match; ``lanes[i]`` is the
    connection ``requests[i]`` is sent on.
    """

    def __init__(self, host: str, port: int, requests: list[dict],
                 expected: list[str], oracle: Callable[[int], object],
                 lanes: list[int]) -> None:
        self.host, self.port = host, port
        self.bodies = [json.dumps(r)[:-1].encode() for r in requests]
        self.lanes = lanes
        self.expected = expected
        self.oracle = oracle
        self._conns: list[tuple[asyncio.StreamReader,
                                asyncio.StreamWriter]] = []
        self._readers: list[asyncio.Task] = []
        self._pending: dict[int, tuple[float, int, Phase]] = {}
        self._next_id = 0
        self._cursor = 0
        #: every phase run, in order
        self.phases: list[Phase] = []
        #: the closed-loop phase that answers refill, while it runs
        self._refill: Phase | None = None
        self._all_done: asyncio.Event | None = None

    async def __aenter__(self) -> "LoadGenerator":
        self._all_done = asyncio.Event()
        for _ in range(CONNECTIONS):
            conn = await asyncio.open_connection(self.host, self.port,
                                                 limit=LINE_LIMIT)
            self._conns.append(conn)
            self._readers.append(asyncio.create_task(self._read(conn[0])))
        return self

    async def __aexit__(self, *exc: object) -> None:
        for _reader, writer in self._conns:
            writer.close()
        for task in self._readers:
            task.cancel()
        for task in self._readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for _reader, writer in self._conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            comma = line.find(b",")
            try:
                rid = int(line[6:comma])  # line starts with {"id":<n>,
            except ValueError:
                rid = json.loads(line).get("id")
            entry = self._pending.pop(rid, None)
            if entry is None:
                continue
            due, base, phase = entry
            phase.latencies.append(now - due)
            phase.bytes += len(line)
            self._check(line, comma, base, phase)
            if phase is self._refill:
                self._send_next(phase)
            if not self._pending:
                self._all_done.set()

    def _check(self, line: bytes, comma: int, base: int,
               phase: Phase) -> None:
        if base < 0:  # ping
            if b'"pong"' not in line:
                phase.failed += 1
            return
        if line.startswith(_OK_RESULT, comma) and line.endswith(b"}\n"):
            fragment = line[comma + len(_OK_RESULT):-2]
            if result_hash(fragment) == self.expected[base]:
                return
        envelope = json.loads(line)
        if not envelope.get("ok"):
            phase.failed += 1
        elif envelope.get("result") != self.oracle(base):
            phase.wrong += 1

    def _line(self, base: int) -> tuple[int, bytes]:
        rid = self._next_id
        self._next_id += 1
        body = b'{"op": "ping"' if base < 0 else self.bodies[base]
        return rid, body + b', "id": %d}\n' % rid

    async def phase(self, rate: float, duration: float) -> Phase:
        """Send at ``rate`` for ``duration`` seconds, then wait for the
        answers (up to :data:`DRAIN_S`); unanswered requests fail."""
        result = Phase(rate=rate)
        self.phases.append(result)
        total = max(1, int(rate * duration))
        writers = [w for _r, w in self._conns]
        cpu = time.process_time()
        start = time.perf_counter()
        sent = 0
        while sent < total:
            now = time.perf_counter()
            due = start + sent / rate
            if due > now:
                await asyncio.sleep(due - now)
                continue
            chunks: list[list[bytes]] = [[] for _ in writers]
            while sent < total and start + sent / rate <= now:
                due = start + sent / rate
                base = self._cursor
                self._cursor = (self._cursor + 1) % len(self.bodies)
                rid, line = self._line(base)
                self._pending[rid] = (due, base, result)
                result.lags.append(now - due)
                chunks[self.lanes[base] % len(writers)].append(line)
                sent += 1
            for writer, chunk in zip(writers, chunks):
                if chunk:
                    writer.write(b"".join(chunk))
            for writer in writers:
                await writer.drain()
        result.sent = sent
        result.elapsed = time.perf_counter() - start
        await self._drain(result)
        result.cpu = time.process_time() - cpu
        return result

    async def _drain(self, result: Phase) -> None:
        """Wait up to :data:`DRAIN_S` for the phase's outstanding answers;
        those that never come count as failed."""
        self._all_done.clear()
        if self._pending:
            try:
                await asyncio.wait_for(self._all_done.wait(), DRAIN_S)
            except asyncio.TimeoutError:
                pass
        lost = [rid for rid, entry in self._pending.items()
                if entry[2] is result]
        for rid in lost:
            del self._pending[rid]
        result.failed += len(lost)

    def _send_next(self, phase: Phase) -> None:
        base = self._cursor
        self._cursor = (self._cursor + 1) % len(self.bodies)
        rid, line = self._line(base)
        self._pending[rid] = (time.perf_counter(), base, phase)
        self._conns[self.lanes[base] % len(self._conns)][1].write(line)
        phase.sent += 1

    async def saturate(self, duration: float, window: int) -> Phase:
        """Closed loop: keep ``window`` requests in flight, sending the
        next one as each answer arrives, for ``duration`` seconds.  The
        phase's ``done_by_deadline`` answers over ``elapsed`` seconds are
        the server's throughput with a standing queue."""
        result = Phase(rate=0.0)
        self.phases.append(result)
        cpu = time.process_time()
        start = time.perf_counter()
        self._refill = result
        for _ in range(window):
            self._send_next(result)
        await asyncio.sleep(duration)
        self._refill = None
        result.elapsed = time.perf_counter() - start
        result.done_by_deadline = len(result.latencies)
        await self._drain(result)
        result.cpu = time.process_time() - cpu
        return result

    async def ping_ceiling(self, duration: float, window: int = 64) -> float:
        """Calibration on the cheapest route: a closed loop of pings with
        ``window`` in flight per connection.  Returns the generator's
        ceiling, pings answered per second of the generator's own CPU
        time (what it could drive if the server cost nothing); 0 if any
        ping failed."""
        phase = Phase(rate=0.0)
        cpu = time.process_time()
        start = time.perf_counter()
        while time.perf_counter() - start < duration:
            for writer in (w for _r, w in self._conns):
                lines = []
                for _ in range(window):
                    rid, line = self._line(-1)
                    self._pending[rid] = (time.perf_counter(), -1, phase)
                    lines.append(line)
                writer.write(b"".join(lines))
            self._all_done.clear()
            await asyncio.wait_for(self._all_done.wait(), DRAIN_S)
        cpu = time.process_time() - cpu
        return len(phase.latencies) / cpu if phase.failed == 0 and cpu else 0.0

    async def call(self, op: str) -> dict:
        """One request outside any phase (``stats``)."""
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT)
        try:
            writer.write(json.dumps({"op": op, "id": 0}).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()
