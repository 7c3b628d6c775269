"""The input interval of the projected feedback-optimization law.

The projected law applies a clamped gradient step so the input set stays
forward-invariant; the stepping kernels carry that law, and this module holds
the set it projects onto.  The input is a scalar, so the set is an interval.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord, set_fields
from .errors import InputError


class BoxSet(FrozenRecord):
    """The interval {u : lo <= u <= hi}; either bound may be +-inf."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise InputError("box bound is NaN")
        if lo > hi:
            raise InputError(f"box has lo > hi ({lo} > {hi})")
        set_fields(self, lo=lo, hi=hi)

    def contains(self, u: float) -> bool:
        return self.lo <= u <= self.hi
