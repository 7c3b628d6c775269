"""The input box of the projected feedback-optimization law and its projection.

The projected law applies a clamped gradient step so the input set stays
forward-invariant; the stepping kernels carry that law, and this module holds
the set it projects onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .linalg import Vector


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {u : lo <= u <= hi}; entries may be +-inf."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise InputError("box lo and hi must have the same length")
        if not lo:
            raise InputError("box must have at least one component")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if math.isnan(a) or math.isnan(b):
                raise InputError(f"box bound {i + 1} is NaN")
            if a > b:
                raise InputError(f"box component {i + 1} has lo > hi ({a} > {b})")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, u: Vector, tol: float = 0.0) -> bool:
        return all(l - tol <= v <= h + tol for l, v, h in zip(self.lo, u, self.hi))


def proj_box(v: Vector, box: BoxSet) -> Vector:
    """Euclidean projection onto a box: componentwise clamping."""
    if len(v) != box.dim:
        raise InputError("projection dimension mismatch")
    return tuple(min(max(x, l), h) for x, l, h in zip(v, box.lo, box.hi))
