"""Plain value classes: what hmt used of dataclasses, without importing it.

A Record subclass lists its fields, in constructor order, as its __slots__
and sets them in its own __init__.  Record compares instances of one class
field by field, shows them as a dataclass would, `Name(field=value, ...)`,
and pickles and copies them through the constructor.  Comparing makes a
Record unhashable; a FrozenRecord hashes the tuple of its fields and
refuses assignment after __init__, which sets fields with
object.__setattr__.

They are not dataclasses because importing `dataclasses` loads inspect,
ast, dis and tokenize and execs generated methods for each class: about a
third of `import hmt, hmt.cli`, which is most of an exact command's time.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
