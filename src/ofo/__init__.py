"""Online feedback optimization: closed-loop simulation and a gain-independent
exponential-stability certificate, with reproducible scenario tooling."""

from .certificate import certify, decay_rate, required_regularization
from .controllers import BoxSet
from .costs import QuadraticCost, SqrtPlusCost
from .plants import LinearPlant, SinePlant
from .sim import (
    DisturbanceSchedule,
    RunConfig,
    envelope_check,
    optimal_input,
    simulate,
    sweep_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSet", "DisturbanceSchedule", "LinearPlant", "QuadraticCost", "RunConfig",
    "SinePlant", "SqrtPlusCost", "certify", "decay_rate", "envelope_check",
    "optimal_input", "required_regularization", "simulate", "sweep_alpha",
]
