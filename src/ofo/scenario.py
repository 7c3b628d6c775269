"""Scenario files: one YAML document describing plant, cost, controller,
disturbance schedule, simulation window, and optional certificate inputs.

Parsing builds the RunConfig the scenario runs, from the plant (LinearPlant
or SinePlant), the cost (QuadraticCost or SqrtPlusCost), the projected law's
BoxSet and the DisturbanceSchedule.  Each constructor makes its own checks
(the plant's refuses a B of other than one column), its error prefixed with
its YAML section.  Parsing itself refuses unknown keys, checks the type and range of
every field, naming its YAML path, and the fits across sections: the length
of x0, the one value of u0 and of each box bound, the schedule's width
against B_w and its last start against t_end, and the scalar output that the
sqrtplus cost needs.  RunConfig repeats the run's checks for library
callers, so on a parsed scenario they always pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, TypeVar

import yaml

from .certificate import CONSTANT_FIELDS
from .controllers import BoxSet
from .costs import QuadraticCost, SqrtPlusCost, check_fit
from .errors import InputError
from .linalg import Matrix
from .plants import LinearPlant, SinePlant
from .sim import DisturbanceSchedule, RunConfig, DEFAULT_MAX_RECORDS

PLANTS = {"linear": LinearPlant, "sine": SinePlant}
#: Each cost kind's own keys, besides `kind` and `mu4`.
COST_KEYS = {"quadratic": ("q_u", "q_y"), "sqrtplus": ("a",)}
CONTROLLER_KINDS = ("gradient", "projected")

T = TypeVar("T")

#: The YAML loader: libyaml's when PyYAML was built with it, which parses
#: about eight times faster, else the pure-Python one.  Both build the same
#: document from the same text.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise InputError(f"{path}: expected a mapping")
    if key not in mapping:
        raise InputError(f"{path}.{key}: missing required field")
    return mapping[key]


def _known_keys(mapping: dict, allowed: tuple, path: str, what: str = "field") -> None:
    """Refuse a key of the mapping at path that is not in allowed."""
    for key in mapping:
        if key not in allowed:
            raise InputError(f"{path}.{key}: unknown {what}; expected one of {', '.join(allowed)}")


def _number(value: Any, path: str, finite: bool = True) -> float:
    """A YAML number; finite unless `finite` is False (box bounds may be +-inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if math.isnan(number):
        raise InputError(f"{path}: expected a number, got {value!r}")
    if finite and math.isinf(number):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return number


def _number_list(value: Any, path: str, finite: bool = True,
                 length: int | None = None) -> list[float]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of numbers")
    if length is not None and len(value) != length:
        raise InputError(f"{path}: expected a list of length {length}, got {len(value)}")
    return [_number(v, f"{path}[{i}]", finite) for i, v in enumerate(value)]


def _matrix(value: Any, path: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of rows")
    rows = [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
    return _build(path, Matrix.from_rows, rows=rows)


def _build(section: str, make: Callable[..., T], **fields: Any) -> T:
    """make(**fields), with an InputError it raises prefixed by its YAML section."""
    try:
        return make(**fields)
    except InputError as exc:
        raise InputError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the run configuration it describes (at the default
    weight xi = 1), its gain, and the certificate's overrides and claimed
    bound."""

    config: RunConfig
    alpha: float
    overrides: dict[str, float] = dc_field(default_factory=dict)
    claimed_mu_bound_rhs: float | None = None

    @classmethod
    def from_dict(cls, doc: Any) -> "Scenario":
        if not isinstance(doc, dict):
            raise InputError("scenario: expected a mapping at the top level")
        _known_keys(doc, ("plant", "cost", "controller", "schedule", "sim", "certificate"),
                    "scenario", "section")

        plant_doc = _require(doc, "plant", "scenario")
        plant_kind = _require(plant_doc, "kind", "plant")
        if plant_kind not in PLANTS:
            raise InputError(f"plant.kind: must be one of {tuple(PLANTS)}, got {plant_kind!r}")
        _known_keys(plant_doc, ("kind", "A", "B", "B_w", "C"), "plant")
        a, b, bw, c = (_matrix(_require(plant_doc, key, "plant"), f"plant.{key}")
                       for key in ("A", "B", "B_w", "C"))
        plant = _build("plant", PLANTS[plant_kind], a=a, b=b, bw=bw, c=c)

        cost_doc = _require(doc, "cost", "scenario")
        cost_kind = _require(cost_doc, "kind", "cost")
        if cost_kind not in COST_KEYS:
            raise InputError(f"cost.kind: must be one of {tuple(COST_KEYS)}, got {cost_kind!r}")
        _known_keys(cost_doc, ("kind", "mu4", *COST_KEYS[cost_kind]), "cost")
        mu4 = _number(cost_doc.get("mu4", 0.0), "cost.mu4")
        if mu4 < 0.0:
            raise InputError("cost.mu4: must be nonnegative")
        if cost_kind == "quadratic":
            cost = _build("cost", QuadraticCost,
                          q_u=_number(_require(cost_doc, "q_u", "cost"), "cost.q_u"),
                          q_y=_number(cost_doc.get("q_y", 1.0), "cost.q_y"), mu4=mu4)
        else:
            cost = _build("cost", SqrtPlusCost,
                          a=_number(_require(cost_doc, "a", "cost"), "cost.a"), mu4=mu4)
        _build("cost", check_fit, cost=cost, p=plant.p)

        controller = _require(doc, "controller", "scenario")
        controller_kind = _require(controller, "kind", "controller")
        if controller_kind not in CONTROLLER_KINDS:
            raise InputError(
                f"controller.kind: must be one of {CONTROLLER_KINDS}, got {controller_kind!r}")
        _known_keys(controller, ("kind", "alpha", "box", "beta"), "controller")
        alpha = _number(_require(controller, "alpha", "controller"), "controller.alpha")
        if alpha <= 0.0:
            raise InputError("controller.alpha: must be positive")
        box = beta = None
        if controller_kind == "projected":
            box_doc = _require(controller, "box", "controller")
            (lo,), (hi,) = (_number_list(_require(box_doc, key, "controller.box"),
                                         f"controller.box.{key}", finite=False, length=1)
                            for key in ("lo", "hi"))
            _known_keys(box_doc, ("lo", "hi"), "controller.box")
            box = _build("controller.box", BoxSet, lo=lo, hi=hi)
            if "beta" in controller:
                beta = _number(controller["beta"], "controller.beta")
                limit = 1.0 / cost.grad_u_lipschitz
                if not 0.0 < beta <= limit:
                    raise InputError(f"controller.beta: must lie in (0, 1/L] = (0, {limit}]")
        else:
            for key in ("box", "beta"):
                if key in controller:
                    raise InputError(f"controller.{key}: only valid for the projected law")

        schedule_doc = _require(doc, "schedule", "scenario")
        if not isinstance(schedule_doc, list) or not schedule_doc:
            raise InputError("schedule: expected a non-empty list of [t_start, w...] rows")
        segments = []
        for i, row in enumerate(schedule_doc):
            vals = _number_list(row, f"schedule[{i}]")
            if len(vals) < 2:
                raise InputError(f"schedule[{i}]: needs a start time and disturbance values")
            segments.append((vals[0], tuple(vals[1:])))
        schedule = _build("schedule", DisturbanceSchedule, segments=tuple(segments))
        if schedule.q != plant.bw.cols:
            raise InputError(
                f"schedule: disturbance width {schedule.q} does not match plant.B_w "
                f"({plant.bw.cols} columns)")

        sim = _require(doc, "sim", "scenario")
        t_end = _number(_require(sim, "t_end", "sim"), "sim.t_end")
        _known_keys(sim, ("t_end", "dt", "x0", "u0", "max_records"), "sim")
        if t_end <= 0.0:
            raise InputError("sim.t_end: must be positive")
        if schedule.segments[-1][0] >= t_end:
            raise InputError("schedule: last segment starts at or after sim.t_end")
        dt = _number(sim["dt"], "sim.dt") if "dt" in sim else None
        if dt is not None and dt <= 0.0:
            raise InputError("sim.dt: must be positive")
        n = plant.n
        x0 = tuple(_number_list(sim["x0"], "sim.x0", length=n)) if "x0" in sim else (0.0,) * n
        (u0,) = _number_list(sim["u0"], "sim.u0", length=1) if "u0" in sim else (0.0,)
        max_records = sim.get("max_records", DEFAULT_MAX_RECORDS)
        if isinstance(max_records, bool) or not isinstance(max_records, int) or max_records < 2:
            raise InputError(f"sim.max_records: expected an integer of at least 2, "
                             f"got {max_records!r}")

        overrides: dict[str, float] = {}
        claimed = None
        if "certificate" in doc and doc["certificate"] is not None:
            cert = doc["certificate"]
            if not isinstance(cert, dict):
                raise InputError("certificate: expected a mapping")
            _known_keys(cert, ("overrides", "claimed_mu_bound_rhs"), "certificate")
            raw = cert.get("overrides", {}) or {}
            if not isinstance(raw, dict):
                raise InputError("certificate.overrides: expected a mapping")
            _known_keys(raw, CONSTANT_FIELDS, "certificate.overrides")
            overrides = {k: _number(v, f"certificate.overrides.{k}") for k, v in raw.items()}
            if "claimed_mu_bound_rhs" in cert:
                claimed = _number(cert["claimed_mu_bound_rhs"], "certificate.claimed_mu_bound_rhs")

        config = RunConfig(plant=plant, cost=cost, schedule=schedule, x0=x0, u0=u0,
                           t_end=t_end, beta=beta, box=box, dt=dt, max_records=max_records)
        return cls(config=config, alpha=alpha, overrides=overrides, claimed_mu_bound_rhs=claimed)

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        try:
            doc = yaml.load(text, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise InputError(f"scenario: YAML parse error: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read scenario file {path!r}: {exc}") from exc
        return cls.loads(text)
