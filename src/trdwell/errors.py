"""Exception types, and the base of the immutable records, shared across the package."""

import operator


class TrdwellError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrdwellError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class DegenerateMicrostate(TrdwellError, ValueError):
    """Coefficient triple with ab - c^2/4 <= 0, or a bilinear form that collapsed."""


class ScanNotSettled(TrdwellError, RuntimeError):
    """A grid scan did not settle within its range (the divergence-onset scan)."""


class StepUnderflow(TrdwellError, ValueError):
    """An energy step would leave (0, U); kept for callers that name it, nothing raises it."""


class OptimizationFailure(TrdwellError, RuntimeError):
    """An extremal report failed its own check: a supremum not positive or above its bound."""


class Infeasible(TrdwellError, ValueError):
    """No admissible solution exists for the requested connection."""


class _DataclassFields:
    """A record's ``__dataclass_fields__``, built from a dataclass twin when ``dataclasses.fields``,
    ``replace`` or ``asdict`` first asks for it: they take the records as they took frozen dataclasses."""

    def __get__(self, record, cls):
        import dataclasses

        init = cls.__init__
        defaults = dict(zip(reversed(cls._fields), reversed(init.__defaults__ or ())))
        specs = []
        for name in cls.__slots__:
            public, default = name in cls._fields, defaults.get(name, dataclasses.MISSING)
            field = dataclasses.field(default=default, init=public, repr=public, compare=name in cls._compared)
            specs.append((name, init.__annotations__.get(name, "object"), field))
        cls.__dataclass_fields__ = dataclasses.make_dataclass(cls.__name__, specs).__dataclass_fields__
        return cls.__dataclass_fields__


class _Record:
    """Base of the immutable records: each lists its slots and writes an ``__init__`` that checks its
    arguments and fills every slot with one :meth:`_set` (loops that fill many records unpack ``_setters``).
    The fields, the ``__init__`` parameters, are the slots without a leading underscore.  repr shows them
    all; equality and hashing use those not in ``_uncompared``.  Assignment and deletion raise
    ``dataclasses.FrozenInstanceError``, and a pickle carries the dict of all slots, as a frozen dataclass's did.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)
        cls._key = operator.attrgetter(*cls._compared)  # a tuple, as every record compares two fields or more
        cls.__match_args__ = cls._fields

    def _set(self, *values) -> None:
        """Write ``values`` into the slots in order, through ``_setters``: each slot descriptor's ``__set__``."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        # a dict of slots, or the list of fields a slotted dataclass pickled
        self._set(*(map(state.__getitem__, self.__slots__) if isinstance(state, dict) else state))
