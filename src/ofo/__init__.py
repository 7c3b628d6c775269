"""Online feedback optimization: closed-loop simulation and a gain-independent
exponential-stability certificate, with reproducible scenario tooling.

`import ofo` runs no submodule: each public name, and each submodule read as
an attribute (`ofo.sim`), is imported on first use (PEP 562) and then kept
in this module's namespace.
"""

import importlib

__version__ = "0.1.0"

#: The submodule that defines each public name.
_ORIGIN = {
    "certify": "certificate", "decay_rate": "certificate",
    "required_regularization": "certificate",
    "BoxSet": "controllers",
    "QuadraticCost": "costs", "SqrtPlusCost": "costs",
    "LinearPlant": "plants", "SinePlant": "plants",
    "DisturbanceSchedule": "sim", "RunConfig": "sim", "envelope_check": "sim",
    "optimal_input": "sim", "simulate": "sim", "sweep_alpha": "sim",
}
__all__ = sorted(_ORIGIN)
_SUBMODULES = ("certificate", "cli", "controllers", "costs", "engine", "errors",
               "linalg", "plants", "scenario", "sim")


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
