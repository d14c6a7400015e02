import types

import loccsim


def test_all_names_resolve_once():
    names = loccsim.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(loccsim, name)
        assert not isinstance(obj, types.ModuleType), name
