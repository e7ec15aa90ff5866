"""Named parameter vectors: the unit that gets trained, masked and averaged.

A ParamVec is one contiguous 1-D float64 buffer plus an immutable layout of
(name, shape) pairs in canonical order (declaration order of the model that
produced it).  Each tensor takes the next prod(shape) elements, row-major,
so `flat()` is the buffer, `entries` are named views into it, and every
operation below is one buffer operation after a layout comparison.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

Layout = tuple[tuple[str, tuple[int, ...]], ...]


@functools.lru_cache(maxsize=64)
def offsets(layout: Layout) -> tuple[int, ...]:
    """Start of each tensor in the buffer, followed by the buffer length."""
    return tuple(itertools.accumulate((math.prod(s) for _, s in layout), initial=0))


class ParamVec:
    """One float64 buffer with named, shaped views at fixed offsets."""

    def __init__(self, entries):
        """Copy (name, array) pairs, in order, into one new buffer."""
        arrays = [np.asarray(arr, dtype=np.float64) for _, arr in entries]
        self.layout = tuple((name, a.shape) for (name, _), a in zip(entries, arrays))
        if len({name for name, _ in self.layout}) != len(self.layout):
            raise ValueError("parameter names must be unique")
        self.buf = np.concatenate([np.zeros(0)] + [a.ravel() for a in arrays])

    @classmethod
    def from_buffer(cls, layout: Layout, buf: np.ndarray) -> "ParamVec":
        """Wrap `buf` (not copied) under `layout`."""
        if buf.dtype != np.float64 or buf.shape != (offsets(layout)[-1],):
            raise ValueError("buffer does not match the layout")
        pv = cls.__new__(cls)
        pv.layout, pv.buf = layout, buf
        return pv

    @property
    def entries(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, view) pairs in canonical order; writes go to the buffer."""
        offs = offsets(self.layout)
        return tuple(
            (name, self.buf[start:stop].reshape(shape))
            for (name, shape), start, stop in zip(self.layout, offs, offs[1:])
        )

    @property
    def total_len(self) -> int:
        return self.buf.size

    @property
    def nbytes_serialized(self) -> int:
        """Size of one full transfer: float64 payload, no framing."""
        return self.buf.nbytes

    def copy(self) -> "ParamVec":
        return ParamVec.from_buffer(self.layout, self.buf.copy())

    def flat(self) -> np.ndarray:
        """All tensors in canonical order, row-major within each: the buffer itself."""
        return self.buf

    def same_structure(self, other: "ParamVec") -> bool:
        return self.layout == other.layout

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.buf).all())


def zeros_like(pv: ParamVec) -> ParamVec:
    return ParamVec.from_buffer(pv.layout, np.zeros_like(pv.buf))


def add(a: ParamVec, b: ParamVec) -> ParamVec:
    _require_same_structure(a, b)
    return ParamVec.from_buffer(a.layout, a.buf + b.buf)


def sub(a: ParamVec, b: ParamVec) -> ParamVec:
    _require_same_structure(a, b)
    return ParamVec.from_buffer(a.layout, a.buf - b.buf)


def mean(pvs: list[ParamVec]) -> ParamVec:
    if not pvs:
        raise ValueError("mean of empty list")
    first = pvs[0]
    # Byte-identical to stacking each tensor's K copies and taking
    # .mean(axis=0): numpy sums the stacked rows in order, one after another,
    # except for a one-element tensor, whose K values it sums pairwise, as
    # np.mean does along each row of the (positions, K) gather below.
    total = first.buf.copy()
    for pv in pvs[1:]:
        _require_same_structure(first, pv)
        total += pv.buf
    total /= len(pvs)
    offs = offsets(first.layout)
    ones = [start for start, stop in zip(offs, offs[1:]) if stop - start == 1]
    total[ones] = np.mean(np.stack([pv.buf[ones] for pv in pvs], axis=1), axis=1)
    return ParamVec.from_buffer(first.layout, total)


def max_abs_diff(a: ParamVec, b: ParamVec) -> float:
    _require_same_structure(a, b)
    diff = a.buf - b.buf
    return float(np.max(np.abs(diff, out=diff), initial=0.0))


def _require_same_structure(a: ParamVec, b: ParamVec) -> None:
    if not a.same_structure(b):
        raise ValueError("parameter vectors are structurally incompatible")
