"""Host-speed calibration: a fixed kernel that never calls the program.

Usage: ``python3 perfbench/calibrate.py``; prints the kernel's wall
seconds as one JSON number.  The benchmark runs it in a fresh process
before and after each unit of measured work and scales that work's wall
time by ``reference ÷ calibration`` (see :class:`run.HostClock`), so a
shared host that slows every process by 30 % for a minute does not move
the reported figures, while a change to the program does.

The kernel is dict, sort and string work in the interpreter, like edge
parsing and hierarchy construction.  An earlier kernel also sorted a
few MB with NumPy; on a shared host that part slowed by up to twice as
much as the builds did and jittered more, so scaling by it added more
noise than it removed.
"""

from __future__ import annotations

import json
import time

ROUNDS = 16


def kernel() -> float:
    began = time.perf_counter()
    for _ in range(ROUNDS):
        table = {}
        for x in range(60_000):
            table[x] = (x * 7) % 1013
        sorted(table.items(), key=lambda kv: kv[1])
        " ".join(str(x) for x in range(30_000)).split()
    return time.perf_counter() - began


if __name__ == "__main__":
    print(json.dumps(kernel()))
