"""Every file rlready writes goes through records.write_whole.

A file opened to write anywhere else is written in place, and a crash leaves
it torn. This parses each module and fails on any open() whose mode writes,
appends, creates or updates, and on any Path.write_text or write_bytes,
outside the opens listed in ALLOWED.
"""

import ast
import importlib

import pytest

from test_undefined_globals import _module_names

ALLOWED = {
    ("records", "write_whole", "w"),  # the writer: a FIFO or device, written in place
    ("records", "write_whole", "x"),  # the writer's temp file
    ("records", "RecordStore.append", "ab"),  # the store's record files only grow
    ("parts", "_Children.fork", "wb"),  # a forked child's end of its pipe
}


def _mode(call):
    """The mode an open() or write_* call writes with, or None if it reads."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name != "open":
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg in ("mode", "flags")), None)
    if mode is None:
        return None
    if not isinstance(mode, ast.Constant):
        return ast.unparse(mode)  # a mode or os.open flags it cannot read: flagged
    return mode.value if set(mode.value) & set("wax+") else None


def write_opens(source):
    """(enclosing function's qualified name, mode) of each call that writes a file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and (mode := _mode(child)) is not None:
                found.append((".".join(scope), mode))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("name", _module_names())
def test_files_are_written_through_the_one_writer(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        opens = write_opens(fh.read())
    short = name.rpartition(".")[2]
    assert [(where, mode) for where, mode in opens if (short, where, mode) not in ALLOWED] == []


def test_guard_flags_every_way_to_open_a_file_to_write():
    source = (
        "import os\n"
        "def f(p, m):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, 'w')\n"
        "    class C:\n"
        "        def g(self):\n"
        "            p.open(mode='a')\n"
        "    p.write_text('x')\n"
        "    open(p, m)\n"
        "    os.open(p, os.O_WRONLY)\n"
        "    open(p, 'r+')\n"
    )
    assert write_opens(source) == [("f", "w"), ("f.C.g", "a"), ("f", "write_text"), ("f", "m"),
                                   ("f", "os.O_WRONLY"), ("f", "r+")]
