"""One write refusal for the package's frozen dataclasses.

@dataclass(frozen=True, slots=True) generates a __setattr__ and a
__delattr__ that raise FrozenInstanceError for a field, but on Python 3.11
they reach any other name through super(cls, self), with the class from
before slots=True rebuilt it, and so raise TypeError instead.
refuse_writes, applied after dataclass has built the class, replaces both
hooks with ones that raise FrozenInstanceError for every name.  The slot
setters the hot values are built through (_set_core =
LefschetzClass.core.__set__) write past these hooks, so construction costs
the same.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


def _refuse_set(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to {type(self).__name__}.{name}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete {type(self).__name__}.{name}")


def refuse_writes(cls: type) -> type:
    """cls, with every attribute write and delete refused by
    FrozenInstanceError; stacked above @dataclass(frozen=True, ...)."""
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls
