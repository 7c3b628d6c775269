"""The input interval of the projected feedback-optimization law.

The projected law applies a clamped gradient step so the input set stays
forward-invariant; the stepping kernels carry that law, and this module holds
the set it projects onto.  The input is a scalar, so the set is an interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class BoxSet:
    """The interval {u : lo <= u <= hi}; either bound may be +-inf."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise InputError("box bound is NaN")
        if lo > hi:
            raise InputError(f"box has lo > hi ({lo} > {hi})")

    def contains(self, u: float) -> bool:
        return self.lo <= u <= self.hi
