"""One check of the value semantics of a frozen dataclass, shared by the
tests of the ring classes, the motives and the DSL syntax tree."""

import dataclasses
import itertools

import pytest


def assert_frozen_value(cls, names: tuple[str, ...], samples: list[tuple], pinned_repr: str) -> None:
    """cls has the fields `names`, in order; built from each field tuple in
    `samples`, it reads back those fields, refuses every setattr and delattr
    with FrozenInstanceError, and is equal, with equal hashes, exactly when
    the fields are.  The first sample's repr is `pinned_repr`."""
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    built = [cls(*fields) for fields in samples]
    for x, fields in zip(built, samples):
        assert tuple(getattr(x, name) for name in names) == fields
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        # nor any other attribute, with the same error (grstacks.frozen)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, "other", None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, "other")
        assert tuple(getattr(x, name) for name in names) == fields
    # a second build of each sample is a distinct object with equal fields
    again = [cls(*fields) for fields in samples]
    for (x, u), (y, v) in itertools.product(zip(built, samples), zip(again, samples)):
        assert x is not y
        assert (x == y) == (u == v)
        if u == v:
            assert hash(x) == hash(y)
    assert repr(built[0]) == pinned_repr
