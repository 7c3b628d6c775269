"""The base classes of ofo's records.

A record's fields are the parameters of its class's `__init__`, read once
per class from the code object.  A `Record` prints as
`Name(field=value, ...)` and equals another record of the same class when
their fields are equal; anything else a record holds, such as a cache, is
left out of both.  A `FrozenRecord` sets its fields once, through
`set_fields` in `__init__`, refuses every later assignment, and hashes its
fields.
"""


class Record:
    __slots__ = ()

    #: The parameters of the class's __init__ after self, in order; a class
    #: that defines no __init__ keeps those of the one it inherits.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._values())


def set_fields(record: FrozenRecord, **values) -> None:
    """Set a frozen record's attributes, past its refusal to assign."""
    for name, value in values.items():
        object.__setattr__(record, name, value)
