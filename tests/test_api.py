"""The package's public names: its imports and __all__ name the same set."""
import types

import shapenewton


def test_every_exported_name_resolves():
    assert len(set(shapenewton.__all__)) == len(shapenewton.__all__)
    missing = [name for name in shapenewton.__all__ if not hasattr(shapenewton, name)]
    assert not missing


def test_every_public_name_is_exported():
    public = {name for name, value in vars(shapenewton).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(shapenewton.__all__)) == []
