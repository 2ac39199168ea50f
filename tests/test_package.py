import types

import dvwu


def test_star_import_binds_only_listed_names():
    namespace: dict = {}
    exec("from dvwu import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dvwu.__all__)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


def test_every_listed_name_resolves():
    assert len(set(dvwu.__all__)) == len(dvwu.__all__)
    for name in dvwu.__all__:
        assert getattr(dvwu, name) is not None, name
