#!/usr/bin/env python3
"""Time a fixed kernel to gauge how fast the host runs right now.

    python3 simbench/calibrate.py [iterations]

Prints the kernel's wall seconds. The kernel is CPython's interpreter
loop running a small predictor-like program: an xorshift generator, a
table indexed by a branch history, and a data-dependent branch. Like
the simulator, it is a large interpreter whose speed falls when a
neighbour on a shared host competes for the core's caches, while it
shares no code with the simulator, so a change to the simulator never
moves it. run.py runs it in a fresh process before every measured
pbs_exp process and scales the end-to-end times by how much slower or
faster than usual the host ran it (see run_end_to_end there).
"""

import sys
import time

MASK64 = (1 << 64) - 1


def kernel(iterations):
    table = [0] * 65536
    hist = acc = 0
    x = 88172645463325252
    for _ in range(iterations):
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        idx = (x ^ hist) & 0xFFFF
        v = table[idx]
        if (v ^ x) & 1:
            acc += v
            hist = ((hist << 1) | 1) & 0xFFFF
        else:
            acc ^= v >> 3
            hist = (hist << 1) & 0xFFFF
        table[idx] = (v + acc) & 0xFFFFFFFF
    return acc


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100000
    start = time.perf_counter()
    kernel(n)
    print(f"{time.perf_counter() - start:.9f}")
