"""Named parameter vectors: the unit that gets trained, masked and averaged.

A ParamVec is an ordered list of (name, float64 array) pairs.  The order
is canonical (declaration order of the model that produced it) and every
structural operation in the package relies on it: flattening, masking,
aggregation and the leakage proxies all walk the entries in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ParamVec:
    entries: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.entries = [
            (name, np.asarray(arr, dtype=np.float64)) for name, arr in self.entries
        ]

    @property
    def total_len(self) -> int:
        return sum(arr.size for _, arr in self.entries)

    @property
    def nbytes_serialized(self) -> int:
        """Size of one full transfer: float64 payload, no framing."""
        return 8 * self.total_len

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def copy(self) -> "ParamVec":
        return ParamVec([(name, arr.copy()) for name, arr in self.entries])

    def flat(self) -> np.ndarray:
        """Concatenate all tensors in canonical order, row-major within each."""
        if not self.entries:
            return np.zeros(0)
        return np.concatenate([arr.ravel() for _, arr in self.entries])

    def same_structure(self, other: "ParamVec") -> bool:
        return len(self.entries) == len(other.entries) and all(
            a_name == b_name and a.shape == b.shape
            for (a_name, a), (b_name, b) in zip(self.entries, other.entries)
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(arr).all() for _, arr in self.entries)


def zeros_like(pv: ParamVec) -> ParamVec:
    return ParamVec([(name, np.zeros_like(arr)) for name, arr in pv.entries])


def add(a: ParamVec, b: ParamVec) -> ParamVec:
    _require_same_structure(a, b)
    return ParamVec(
        [(name, x + y) for (name, x), (_, y) in zip(a.entries, b.entries)]
    )


def sub(a: ParamVec, b: ParamVec) -> ParamVec:
    _require_same_structure(a, b)
    return ParamVec(
        [(name, x - y) for (name, x), (_, y) in zip(a.entries, b.entries)]
    )


def scale(a: ParamVec, factor: float) -> ParamVec:
    return ParamVec([(name, factor * arr) for name, arr in a.entries])


def mean(pvs: list[ParamVec]) -> ParamVec:
    if not pvs:
        raise ValueError("mean of empty list")
    first = pvs[0]
    for other in pvs[1:]:
        _require_same_structure(first, other)
    # Byte-identical to np.stack(...).mean(axis=0) without the K-by-tensor
    # temporary: numpy sums the stacked rows in order, one after another,
    # except for a one-element tensor, whose K values it sums pairwise.
    out = []
    for idx, (name, arr) in enumerate(first.entries):
        if arr.size == 1:
            out.append((name, np.mean([pv.entries[idx][1] for pv in pvs], axis=0)))
            continue
        total = arr.copy()
        for pv in pvs[1:]:
            total += pv.entries[idx][1]
        total /= len(pvs)
        out.append((name, total))
    return ParamVec(out)


def max_abs_diff(a: ParamVec, b: ParamVec) -> float:
    _require_same_structure(a, b)
    if a.total_len == 0:
        return 0.0
    return max(
        float(np.max(np.abs(x - y)))
        for (_, x), (_, y) in zip(a.entries, b.entries)
    )


def _require_same_structure(a: ParamVec, b: ParamVec) -> None:
    if not a.same_structure(b):
        raise ValueError("parameter vectors are structurally incompatible")
