"""The records' shared behaviour and the spec contract the benchmark relies on.

Every record is a Record: its fields are its constructor's parameters, it
prints as `Name(field=value, ...)`, and it equals another record of its
class exactly when every field does, so a check of two runs for equality
(the benchmark's compiled-against-pure check compares SegmentResults)
cannot pass vacuously.  The records that were frozen dataclasses are
FrozenRecords: assignment raises, and equal records hash equal.
SegmentSpec is a dataclass because the benchmark's tracer records it with
dataclasses.asdict and rebuilds it from that dict.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from array import array

import pytest

import ofo
from ofo import engine
from ofo._record import FrozenRecord, Record
from ofo.certificate import certify
from ofo.controllers import BoxSet
from ofo.costs import QuadraticCost
from ofo.plants import LinearPlant, SinePlant
from ofo.sim import SweepRow

from conftest import bundled_scenario, replace


def fields(record) -> list[str]:
    """The fields of a record: its constructor's parameters."""
    return list(inspect.signature(type(record)).parameters)


def changed(record, name, value):
    """A copy of record with the one field name set to value, made without
    the constructor so that none of its checks stands in the way."""
    copy = object.__new__(type(record))
    if hasattr(record, "__dict__"):
        vars(copy).update(vars(record), **{name: value})
    else:
        for slot in set(type(record).__slots__) - {"__weakref__"}:
            object.__setattr__(copy, slot, value if slot == name else getattr(record, slot))
    return copy


def other(value):
    """A value of value's kind that differs from it; for a record, the
    record with its first field changed."""
    if value is None:
        return 1.0
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, array):
        return value + array(value.typecode, [0.0])
    if isinstance(value, (tuple, list)):
        return value + type(value)([0.0])
    if isinstance(value, dict):
        return {**value, "other": 1.0}
    first = fields(value)[0]
    return changed(value, first, other(getattr(value, first)))


@pytest.fixture(scope="module")
def records() -> dict:
    """One record of each class, by class name, from the bundled scenarios,
    one fig1 run and fig2's certificate."""
    fig1, fig2 = bundled_scenario("fig1"), bundled_scenario("fig2")
    traj, summary = fig1.config.run(100.0)
    report = certify(fig2.config.plant, fig2.config.cost, fig2.alpha, fig2.overrides)
    assert report.certified
    return {
        "Scenario": fig1, "RunConfig": fig2.config, "LinearPlant": fig1.config.plant,
        "SinePlant": fig2.config.plant, "Matrix": fig1.config.plant.a,
        "QuadraticCost": fig1.config.cost, "SqrtPlusCost": fig2.config.cost,
        "DisturbanceSchedule": fig1.config.schedule, "BoxSet": fig2.config.box,
        "RunSummary": summary, "SegmentResult": traj.segments[0].samples,
        "Segment": traj.segments[0], "Trajectory": traj,
        "SweepRow": SweepRow(100.0, traj, summary),
        "CertificateReport": report, "SimplifyingConstants": report.constants,
        "DominanceParams": report.params, "XiInterval": report.xi,
    }


#: The records that were frozen dataclasses.
FROZEN = ["BoxSet", "CertificateReport", "DisturbanceSchedule", "DominanceParams",
          "LinearPlant", "Matrix", "QuadraticCost", "RunConfig", "RunSummary", "Scenario",
          "SimplifyingConstants", "SinePlant", "SqrtPlusCost", "XiInterval"]
NAMES = sorted(FROZEN + ["Segment", "SegmentResult", "SweepRow", "Trajectory"])


def test_every_record_is_tested():
    # the compiled kernel's loader defines no record, and needs cc to import
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(ofo.__path__, "ofo.")
               if info.name != "ofo.engine._speedup"]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__}
    assert sorted(cls.__name__ for cls in classes if issubclass(cls, Record)
                  and cls not in (Record, FrozenRecord)) == NAMES
    assert sorted(cls.__name__ for cls in classes if issubclass(cls, FrozenRecord)
                  and cls is not FrozenRecord) == FROZEN
    # the base classes hold the only __eq__, __repr__ and __hash__ of a record
    for cls in classes:
        if issubclass(cls, Record) and cls not in (Record, FrozenRecord):
            assert not {"__eq__", "__repr__", "__hash__"} & set(vars(cls)), cls


@pytest.mark.parametrize("name", NAMES)
def test_records_differing_in_one_field_compare_unequal(records, name):
    record = records[name]
    assert type(record).__name__ == name
    assert replace(record) == record
    for field in fields(record):
        assert changed(record, field, getattr(record, field)) == record, field
        assert changed(record, field, other(getattr(record, field))) != record, field


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_each_field_in_order(records, name):
    record = records[name]
    text = repr(record)
    assert text.startswith(f"{name}(") and text.endswith(")")
    positions = [text.find(f"{field}=") for field in fields(record)]
    assert -1 not in positions and positions == sorted(positions), text
    assert repr(replace(record)) == text


def test_repr_of_small_records():
    assert repr(BoxSet(-1, 2)) == "BoxSet(lo=-1.0, hi=2.0)"
    assert repr(QuadraticCost(q_u=0.5)) == "QuadraticCost(q_u=0.5, q_y=1.0, mu4=0.0)"


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(records, name):
    record = records[name]
    for field in fields(record):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, field)
    assert replace(record) == record


@pytest.mark.parametrize("name", sorted(set(FROZEN) - {"Scenario"}))
def test_equal_frozen_records_hash_equal(records, name):
    record = records[name]
    assert hash(replace(record)) == hash(record)


def test_a_scenario_is_unhashable_through_its_overrides(records):
    with pytest.raises(TypeError, match="dict"):
        hash(records["Scenario"])


def test_a_plant_keeps_its_matrices(records):
    plant = records["LinearPlant"]
    with pytest.raises(AttributeError, match="immutable"):
        plant.a.data = plant.a.data
    assert "lyapunov_p" not in repr(plant)


def test_plants_of_two_kinds_compare_unequal(records):
    plant = records["LinearPlant"]
    sine = SinePlant(plant.a, plant.b, plant.bw, plant.c)
    assert sine != plant and plant != sine
    assert sine == SinePlant(plant.a, plant.b, plant.bw, plant.c)
    assert LinearPlant(plant.a, plant.b, plant.bw, plant.c) == plant


def test_run_config_equality_ignores_its_references(records):
    config = records["RunConfig"]
    copy = replace(config)
    config.reference(config.schedule.segments[0][1])
    assert config._references and not copy._references
    assert copy == config and hash(copy) == hash(config) and repr(copy) == repr(config)


def test_segment_spec_round_trips_through_asdict(monkeypatch):
    # the benchmark's tracer keeps a spec as dataclasses.asdict(spec), and
    # rebuilds it with SegmentSpec(**doc) to run both kernels on it
    specs, real = [], engine.run_segment
    monkeypatch.setattr(engine, "run_segment", lambda spec: specs.append(spec) or real(spec))
    bundled_scenario("fig1").config.run(100.0)
    spec = specs[0]
    rebuilt = engine.SegmentSpec(**dataclasses.asdict(spec))
    assert rebuilt == spec
    assert real(rebuilt) == real(spec)
