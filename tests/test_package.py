import horicert


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from horicert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(horicert.__all__)
    assert all(namespace[name] is getattr(horicert, name) for name in horicert.__all__)
