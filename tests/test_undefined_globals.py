"""Every global name a function in rlready loads must exist at import time.

A call to a helper that was renamed or never defined imports cleanly and
only raises NameError when that line runs. This walks each module's code
objects with dis and fails on any LOAD_GLOBAL whose name is neither in the
module's namespace nor a builtin, so such a fault fails here instead.
"""

import builtins
import dis
import importlib
import pkgutil
import types

import pytest

import rlready


def _module_names():
    prefix = rlready.__name__ + "."
    return [rlready.__name__] + sorted(
        info.name for info in pkgutil.walk_packages(rlready.__path__, prefix)
    )


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def undefined_globals(source, namespace):
    """(code name, global name), one per LOAD_GLOBAL that namespace cannot resolve."""
    known = set(namespace) | set(dir(builtins))
    return sorted(
        (code.co_name, ins.argval)
        for code in _code_objects(compile(source, "<module>", "exec"))
        for ins in dis.get_instructions(code)
        if ins.opname == "LOAD_GLOBAL" and ins.argval not in known
    )


@pytest.mark.parametrize("name", _module_names())
def test_no_undefined_globals(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert undefined_globals(source, vars(module)) == []


def test_guard_flags_an_undefined_helper():
    source = "def helper():\n    return 1\n\ndef caller():\n    return _helper() + helper()\n"
    namespace = {}
    exec(source, namespace)
    assert undefined_globals(source, namespace) == [("caller", "_helper")]


def test_every_exported_name_is_bound():
    assert [name for name in rlready.__all__ if not hasattr(rlready, name)] == []
    namespace = {}
    exec("from rlready import *", namespace)
    assert set(rlready.__all__) <= set(namespace)
