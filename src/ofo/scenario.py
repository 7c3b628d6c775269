"""Scenario files: one YAML document describing plant, cost, controller,
disturbance schedule, simulation window, and optional certificate inputs.

Parsing is strict: every field is type- and shape-checked with the offending
field path in the error message, before anything is built or run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any

import yaml

from .controllers import BoxSet
from .costs import CostModel, QuadraticCost, RegularizedCost, SqrtPlusCost
from .errors import InputError
from .linalg import Matrix, Vector
from .plants import LinearPlant, SinePlant
from .sim import DisturbanceSchedule, RunConfig, DEFAULT_MAX_RECORDS

PLANT_KINDS = ("linear", "sine")
COST_KINDS = ("quadratic", "sqrtplus")
CONTROLLER_KINDS = ("gradient", "projected")


def _require(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise InputError(f"{path}: expected a mapping")
    if key not in mapping:
        raise InputError(f"{path}.{key}: missing required field")
    return mapping[key]


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


def _number_list(value: Any, path: str, finite: bool = True) -> list[float]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of numbers")
    return [_number(v, f"{path}[{i}]", finite) for i, v in enumerate(value)]


def _matrix(value: Any, path: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a non-empty list of rows")
    rows = [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: rows have inconsistent widths")
    return Matrix.from_rows(rows)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; all cross-field dimensional checks already done."""

    plant_kind: str
    a: Matrix
    b: Matrix
    bw: Matrix
    c: Matrix
    cost_kind: str
    q_u: float | None
    q_y: float | None
    a_weight: float | None
    mu4: float
    controller_kind: str
    alpha: float
    beta: float | None
    box_lo: Vector | None
    box_hi: Vector | None
    schedule: DisturbanceSchedule
    t_end: float
    dt: float | None
    x0: Vector | None
    u0: Vector | None
    max_records: int
    overrides: dict[str, float] = dc_field(default_factory=dict)
    claimed_mu_bound_rhs: float | None = None

    # ---------- construction ----------

    @classmethod
    def from_dict(cls, doc: Any) -> "Scenario":
        if not isinstance(doc, dict):
            raise InputError("scenario: expected a mapping at the top level")
        known = {"plant", "cost", "controller", "schedule", "sim", "certificate"}
        for key in doc:
            if key not in known:
                raise InputError(f"scenario: unknown section {key!r}")

        plant = _require(doc, "plant", "scenario")
        plant_kind = _require(plant, "kind", "plant")
        if plant_kind not in PLANT_KINDS:
            raise InputError(f"plant.kind: must be one of {PLANT_KINDS}, got {plant_kind!r}")
        a = _matrix(_require(plant, "A", "plant"), "plant.A")
        b = _matrix(_require(plant, "B", "plant"), "plant.B")
        bw = _matrix(_require(plant, "B_w", "plant"), "plant.B_w")
        c = _matrix(_require(plant, "C", "plant"), "plant.C")

        cost = _require(doc, "cost", "scenario")
        cost_kind = _require(cost, "kind", "cost")
        if cost_kind not in COST_KINDS:
            raise InputError(f"cost.kind: must be one of {COST_KINDS}, got {cost_kind!r}")
        q_u = q_y = a_weight = None
        if cost_kind == "quadratic":
            q_u = _number(_require(cost, "q_u", "cost"), "cost.q_u")
            q_y = _number(cost.get("q_y", 1.0), "cost.q_y")
        else:
            a_weight = _number(_require(cost, "a", "cost"), "cost.a")
        mu4 = _number(cost.get("mu4", 0.0), "cost.mu4")

        controller = _require(doc, "controller", "scenario")
        controller_kind = _require(controller, "kind", "controller")
        if controller_kind not in CONTROLLER_KINDS:
            raise InputError(
                f"controller.kind: must be one of {CONTROLLER_KINDS}, got {controller_kind!r}")
        alpha = _number(_require(controller, "alpha", "controller"), "controller.alpha")
        if alpha <= 0.0:
            raise InputError("controller.alpha: must be positive")
        beta = None
        if "beta" in controller:
            beta = _number(controller["beta"], "controller.beta")
        box_lo = box_hi = None
        if controller_kind == "projected":
            box = _require(controller, "box", "controller")
            box_lo = tuple(_number_list(_require(box, "lo", "controller.box"),
                                        "controller.box.lo", finite=False))
            box_hi = tuple(_number_list(_require(box, "hi", "controller.box"),
                                        "controller.box.hi", finite=False))
            for i, (lo_i, hi_i) in enumerate(zip(box_lo, box_hi)):
                if lo_i > hi_i:
                    raise InputError(
                        f"controller.box: component {i + 1} has lo > hi ({lo_i} > {hi_i})")
        elif "box" in controller:
            raise InputError("controller.box: only valid for the projected law")

        schedule_doc = _require(doc, "schedule", "scenario")
        if not isinstance(schedule_doc, list) or not schedule_doc:
            raise InputError("schedule: expected a non-empty list of [t_start, w...] rows")
        segments = []
        for i, row in enumerate(schedule_doc):
            vals = _number_list(row, f"schedule[{i}]")
            if len(vals) < 2:
                raise InputError(f"schedule[{i}]: needs a start time and disturbance values")
            segments.append((vals[0], tuple(vals[1:])))
        schedule = DisturbanceSchedule(tuple(segments))

        sim = _require(doc, "sim", "scenario")
        t_end = _number(_require(sim, "t_end", "sim"), "sim.t_end")
        if t_end <= 0.0:
            raise InputError("sim.t_end: must be positive")
        dt = _number(sim["dt"], "sim.dt") if "dt" in sim else None
        if dt is not None and dt <= 0.0:
            raise InputError("sim.dt: must be positive")
        x0 = tuple(_number_list(sim["x0"], "sim.x0")) if "x0" in sim else None
        u0 = tuple(_number_list(sim["u0"], "sim.u0")) if "u0" in sim else None
        max_records = int(_number(sim.get("max_records", DEFAULT_MAX_RECORDS), "sim.max_records"))
        if max_records < 2:
            raise InputError("sim.max_records: must be at least 2")

        overrides: dict[str, float] = {}
        claimed = None
        if "certificate" in doc and doc["certificate"] is not None:
            cert = doc["certificate"]
            if not isinstance(cert, dict):
                raise InputError("certificate: expected a mapping")
            raw = cert.get("overrides", {}) or {}
            if not isinstance(raw, dict):
                raise InputError("certificate.overrides: expected a mapping")
            overrides = {k: _number(v, f"certificate.overrides.{k}") for k, v in raw.items()}
            if "claimed_mu_bound_rhs" in cert:
                claimed = _number(cert["claimed_mu_bound_rhs"], "certificate.claimed_mu_bound_rhs")

        scenario = cls(
            plant_kind=plant_kind, a=a, b=b, bw=bw, c=c,
            cost_kind=cost_kind, q_u=q_u, q_y=q_y, a_weight=a_weight, mu4=mu4,
            controller_kind=controller_kind, alpha=alpha, beta=beta,
            box_lo=box_lo, box_hi=box_hi,
            schedule=schedule, t_end=t_end, dt=dt, x0=x0, u0=u0,
            max_records=max_records, overrides=overrides, claimed_mu_bound_rhs=claimed,
        )
        scenario.validate()
        return scenario

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        try:
            doc = yaml.safe_load(text)
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

    def validate(self) -> None:
        n = self.a.rows
        if self.b.rows != n or self.bw.rows != n or self.c.cols != n or not self.a.is_square():
            raise InputError("plant: matrix shapes are inconsistent")
        m = self.b.cols
        if self.plant_kind == "sine" and m != 1:
            raise InputError("plant.B: the sine plant requires a scalar input")
        if self.cost_kind == "sqrtplus" and (m != 1 or self.c.rows != 1):
            raise InputError("cost: the sqrtplus cost requires scalar input and output")
        if self.schedule.q != self.bw.cols:
            raise InputError(
                f"schedule: disturbance width {self.schedule.q} does not match plant.B_w "
                f"({self.bw.cols} columns)")
        if self.schedule.segments[-1][0] >= self.t_end:
            raise InputError("schedule: last segment starts at or after sim.t_end")
        if self.box_lo is not None and len(self.box_lo) != m:
            raise InputError("controller.box: dimension does not match the plant input")
        if self.x0 is not None and len(self.x0) != n:
            raise InputError(f"sim.x0: expected length {n}")
        if self.u0 is not None and len(self.u0) != m:
            raise InputError(f"sim.u0: expected length {m}")

    # ---------- serialization ----------

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "plant": {
                "kind": self.plant_kind,
                "A": self.a.to_rows(),
                "B": self.b.to_rows(),
                "B_w": self.bw.to_rows(),
                "C": self.c.to_rows(),
            },
        }
        cost: dict[str, Any] = {"kind": self.cost_kind}
        if self.cost_kind == "quadratic":
            cost["q_u"] = self.q_u
            cost["q_y"] = self.q_y
        else:
            cost["a"] = self.a_weight
        if self.mu4:
            cost["mu4"] = self.mu4
        doc["cost"] = cost
        controller: dict[str, Any] = {"kind": self.controller_kind, "alpha": self.alpha}
        if self.beta is not None:
            controller["beta"] = self.beta
        if self.controller_kind == "projected":
            controller["box"] = {"lo": list(self.box_lo), "hi": list(self.box_hi)}
        doc["controller"] = controller
        doc["schedule"] = [[t, *w] for t, w in self.schedule.segments]
        sim: dict[str, Any] = {"t_end": self.t_end}
        if self.dt is not None:
            sim["dt"] = self.dt
        if self.x0 is not None:
            sim["x0"] = list(self.x0)
        if self.u0 is not None:
            sim["u0"] = list(self.u0)
        if self.max_records != DEFAULT_MAX_RECORDS:
            sim["max_records"] = self.max_records
        doc["sim"] = sim
        if self.overrides or self.claimed_mu_bound_rhs is not None:
            cert: dict[str, Any] = {}
            if self.overrides:
                cert["overrides"] = dict(sorted(self.overrides.items()))
            if self.claimed_mu_bound_rhs is not None:
                cert["claimed_mu_bound_rhs"] = self.claimed_mu_bound_rhs
            doc["certificate"] = cert
        return doc

    def dumps(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    # ---------- object construction ----------

    def build_plant(self) -> LinearPlant:
        cls = SinePlant if self.plant_kind == "sine" else LinearPlant
        return cls(a=self.a, b=self.b, bw=self.bw, c=self.c)

    def build_cost(self) -> CostModel:
        if self.cost_kind == "quadratic":
            base: CostModel = QuadraticCost(q_u=self.q_u, q_y=self.q_y)
        else:
            base = SqrtPlusCost(a=self.a_weight)
        if self.mu4 > 0.0:
            return RegularizedCost(base=base, mu4=self.mu4)
        return base

    def build_box(self) -> BoxSet | None:
        if self.box_lo is None:
            return None
        return BoxSet(lo=self.box_lo, hi=self.box_hi)

    def run_config(self) -> RunConfig:
        plant = self.build_plant()
        return RunConfig(
            plant=plant,
            cost=self.build_cost(),
            schedule=self.schedule,
            x0=self.x0 if self.x0 is not None else (0.0,) * plant.n,
            u0=self.u0 if self.u0 is not None else (0.0,) * plant.m,
            t_end=self.t_end,
            beta=self.beta,
            box=self.build_box(),
            dt=self.dt,
            max_records=self.max_records,
        )
