"""Every record class behaves as the frozen dataclass of the same fields would.

Each record is compared with a twin that ``dataclasses.make_dataclass`` builds
here from the fields, defaults and comparison flags the record had as a
frozen dataclass: the same signature, repr, equality, hash, pickle round trip
and frozen-instance errors.
"""

import ast
import copy
import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest

import trdwell
from trdwell.config import Config, SweepSpec
from trdwell.coverage import ConnectionSolution, CoverageVerdict, Event, GridSpec, RelationReport
from trdwell.errors import _Record
from trdwell.microstate import MONOCHROMATIC, BasisRescale, Microstate
from trdwell.potential import BoundState, Kinematics, Potential, Units
from trdwell.times import DwellResult, ExtremalReport
from trdwell.trajectory import FlightTime, TrajectorySample, sample_trajectory
from trdwell.wavefield import CopenhagenState, RegionBasis, canonical_basis

_KIN = Kinematics(0.18, 0.5, 0.6, 0.8, 0.8 / 0.6, Units())
_WELL = Potential("well", 1.0, 2.0)

#: (class, its dataclass fields as "name" or "name=default", constructor arguments)
RECORDS = [
    (SweepSpec, "param start stop count", ("E", 0.1, 0.4, 3)),
    (Config, "units potential=None epsilon=1e-6 sweep=None", (Units(), _WELL, 1e-3, SweepSpec("U", 1.0, 2.0, 4))),
    (Event, "x t", (0.5, 1.0)),
    (CoverageVerdict, "tr_allowed copenhagen_allowed classification witness=None", (True, False, "x", MONOCHROMATIC)),
    (ConnectionSolution, "ms whole_periods phase_offset realized_period arrival_time", (MONOCHROMATIC, 2, 0.2, 3, 7)),
    (GridSpec, "past_positions present_positions time_offsets past_time=0.0", ((0.1,), (0.2, 0.3), (1.0,), 0.5)),
    (RelationReport, "scenario relation counts total=0 notes=()", ("SB", "r", {"BothAllow": 1}, 1, ("n",))),
    (Microstate, "a b c", (2.0, 1.0, 2.0)),
    (BasisRescale, "alpha beta", (2.0, -3.0)),
    (Units, "hbar=1.0 mass=1.0", (2.0, 0.5)),
    (Potential, "kind U q=None", ("well", 1.0, 2.0)),
    (Kinematics, "E U k kappa r units", (0.18, 0.5, 0.6, 0.8, 0.8 / 0.6, Units())),
    (BoundState, "E parity k kappa", (0.25, "even", 0.7, 1.2)),
    (DwellResult, "t_D sign ms kin", (2.0, "+", MONOCHROMATIC, _KIN)),
    (
        ExtremalReport,
        "maximizer supremum analytic_bound epsilon attained_at_boundary sign=None alternative_bound=None"
        " alternative_bound_holds=None",
        (MONOCHROMATIC, 1.0, 2.0, 1e-6, True, "-", 0.5, False),
    ),
    (TrajectorySample, "x t W_x dWx_dE speed", (1.0, 2.0, 3.0, 4.0, 5.0)),
    (FlightTime, "t orientation", (1.5, -1)),
    (RegionBasis, "region wavenumber alpha=1.0 beta=1.0", ("forbidden", 0.8, 2.0, 0.5)),
    (CopenhagenState, "potential kinematics kind parity=None index=None", (_WELL, _KIN, "well-eigenstate", "odd", 1)),
]
#: Fields left out of equality and hashing.
UNCOMPARED = {RelationReport: ("counts",)}
#: Fields a class works out itself, never passed: init=False, repr=False, compare=False.
PRIVATE = {Kinematics: ("_plain", "_fractions", "_gap")}
#: Records that were slotted dataclasses, which pickle a list of their fields.
SLOTTED = {BoundState}


def _twin(cls, spec: str):
    """The frozen dataclass of ``spec``'s fields, with the record's name and parameter annotations."""
    uncompared, private = UNCOMPARED.get(cls, ()), PRIVATE.get(cls, ())
    annotations = cls.__init__.__annotations__
    fields = []
    for item in spec.split():
        name, _, default = item.partition("=")
        value = ast.literal_eval(default) if default else dataclasses.MISSING
        fields.append((name, annotations[name], dataclasses.field(default=value, compare=name not in uncompared)))
    fields += [(name, "object", dataclasses.field(init=False, repr=False, compare=False)) for name in private]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=cls in SLOTTED)


def test_every_record_class_is_listed():
    listed = {cls for cls, _, _ in RECORDS}
    exported = (getattr(trdwell, name) for name in trdwell.__all__)
    assert {cls for cls in exported if isinstance(cls, type) and issubclass(cls, _Record)} == listed
    assert len(listed) == 19


@pytest.mark.parametrize("cls,spec,args", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_as_its_frozen_dataclass(cls, spec, args):
    twin = _twin(cls, spec)
    assert inspect.signature(cls).parameters == inspect.signature(twin).parameters
    record, twin_record = cls(*args), twin(*args)

    assert repr(record) == repr(twin_record)
    assert hash(record) == hash(twin_record)
    assert record == cls(*args) and record != twin_record
    if cls in UNCOMPARED:
        other = cls(*args[:2], {"TROnly": 2}, *args[3:])
        assert record == other and hash(record) == hash(other) and repr(record) != repr(other)

    reduced, twin_reduced = (r.__reduce_ex__(pickle.DEFAULT_PROTOCOL) for r in (record, twin_record))
    state = reduced[2]
    if cls in PRIVATE:  # the twin never works its private fields out
        state = {name: value for name, value in state.items() if name not in PRIVATE[cls]}
    assert reduced[0] is twin_reduced[0] and state == twin_reduced[2]  # a pickle holds the twin's state
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)
        assert all(getattr(clone, name) == getattr(record, name) for name in cls.__slots__)

    mine, its = ([(f.name, f.default, f.init, f.repr, f.compare) for f in dataclasses.fields(c)] for c in (cls, twin))
    assert mine == its
    assert list(dataclasses.asdict(record)) == [f.name for f in dataclasses.fields(twin)]
    assert dataclasses.replace(record) == record
    for name in cls.__slots__:
        for frozen in (record, twin_record):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(frozen, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(frozen, name)


@pytest.mark.parametrize("cls,spec,args", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_each_record_writes_its_slots_through_its_own_setters(cls, spec, args):
    descriptors = [cls.__dict__[name] for name in cls.__slots__]
    assert [(s.__self__, s.__name__) for s in cls._setters] == [(d, "__set__") for d in descriptors]
    record, filled = cls(*args), object.__new__(cls)
    filled._set(*(getattr(record, name) for name in cls.__slots__))
    assert filled == record and repr(filled) == repr(record)
    assert all(getattr(filled, name) is getattr(record, name) for name in cls.__slots__)


def test_no_module_writes_a_slot_around_the_record_setters():
    package = Path(trdwell.__file__).parent
    assert [path.name for path in package.glob("*.py") if "object.__setattr__" in path.read_text("utf-8")] == []


@pytest.mark.parametrize("region", ["free", "forbidden"])
def test_sampled_records_are_the_records_their_fields_construct(region):
    # sample_trajectory fills each record through TrajectorySample._setters, never through __init__
    samples = sample_trajectory((-0.3, 2.1), 9, MONOCHROMATIC, canonical_basis(region, _KIN), _KIN)
    for sample in samples:
        built = TrajectorySample(**sample._asdict())
        assert type(sample) is TrajectorySample
        assert sample == built and hash(sample) == hash(built) and repr(sample) == repr(built)
        clone = pickle.loads(pickle.dumps(sample))
        assert type(clone) is TrajectorySample and clone == sample and repr(clone) == repr(sample)
        for name in TrajectorySample.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(sample, name, 1.0)
        assert sample == built
