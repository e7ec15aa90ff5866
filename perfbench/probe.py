"""Machine-speed probe: a fixed reference kernel timed between ops.

On a shared host the same op can run 1.3-1.7x slower for minutes at a
time while nothing in the process changes (measured on a 2-vCPU KVM guest:
user CPU time moves with wall time, page faults do not).  A run of tens of
seconds cannot average that out, so the gated timings are wall times
scaled to a reference speed:

    scaled = wall * ref / (mean of the probe times just before and after)

The kernel has parts for the kinds of work the workloads do --
interpreter-bound Python, numpy Generator draws on short arrays, an im2col
convolution through BLAS with its col2im slice-adds, SHA-256 of short
messages and bit unpacking -- and a workload times the parts whose slowdown
tracks its own (all of them unless it names fewer).  The probe shares no
code with qkdfl, so a change to the package moves the scaled timings
exactly as it moves the wall timings.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class _Node:
    def __init__(self, value: int):
        self.value = value

    def add(self, x: int) -> int:
        return self.value + x


class SpeedProbe:
    # Median time of each part on the host where the benchmark was defined
    # (2 vCPUs of an Intel Xeon under KVM, Python 3.11, numpy 2.4, 1 BLAS thread).
    REF_S = {"python": 0.0008, "numpy_rng": 0.0035, "conv": 0.0124, "hash": 0.0033}
    REPEATS = 3

    def __init__(self, parts: tuple[str, ...] | None = None):
        self.parts = tuple(parts or self.REF_S)
        self.ref_s = sum(self.REF_S[p] for p in self.parts)
        self._kernels = [getattr(self, "_" + p) for p in self.parts]
        self._x = np.arange(8 * 24 * 24 * 8, dtype=np.float64).reshape(8, 24, 24, 8) / 1e4
        self._w = np.ones((72, 16))
        self._zeros = bytes(40000)
        self()  # first call pays for lazy imports and allocations

    def __call__(self) -> float:
        """Median wall time, in seconds, of REPEATS runs of the chosen parts."""
        times = []
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            for kernel in self._kernels:
                kernel()
            times.append(perf_counter() - t0)
        return sorted(times)[self.REPEATS // 2]

    def _python(self) -> None:
        table, node, total = {}, _Node(1), 0
        for i in range(4000):
            table[i & 255] = node.add(i)
            total += len(table)

    def _numpy_rng(self) -> None:
        for i in range(40):
            rng = np.random.default_rng(np.random.SeedSequence(i).spawn(2)[0])
            a = rng.integers(0, 2, size=2000, dtype=np.uint8)
            b = rng.integers(0, 2, size=2000, dtype=np.uint8)
            c = np.where(a == b, a, b)
            np.count_nonzero(c)
            np.packbits(c).tobytes()

    def _conv(self) -> None:
        for _ in range(3):
            xp = np.pad(self._x, ((0, 0), (1, 1), (1, 1), (0, 0)))
            windows = sliding_window_view(xp, (3, 3), axis=(1, 2))
            cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, 72)
            y = cols @ self._w
            cols.T @ y
            dcols = cols.reshape(8, 24, 24, 3, 3, 8)
            dxp = np.zeros_like(xp)
            for di in range(3):
                for dj in range(3):
                    dxp[:, di:di + 24, dj:dj + 24, :] += dcols[:, :, :, di, dj, :]

    def _hash(self) -> None:
        for i in range(300):
            hashlib.sha256(b"k" * 40 + i.to_bytes(8, "little")).digest()
        bits = np.unpackbits(np.frombuffer(self._zeros, dtype=np.uint8))
        np.where(bits == 1, 1e-3, -1e-3).astype(np.float64)
