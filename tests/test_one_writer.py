"""The package writes every file through ``corpus.write_file`` and makes every directory through ``corpus.make_dir``."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "curvelang")
WRITERS = {"write_file", "make_dir"}


def _open_mode(call: ast.Call):
    """The mode an ``open`` call names: "r" when it names none, None when it is no string constant."""
    node = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def writes_outside_the_writers(source: str) -> list[str]:
    """Each write-mode ``open`` and each ``os.makedirs`` or ``os.mkdir`` outside the writers, as "line: call"."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in WRITERS
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _open_mode(node)
                if mode is None or set(mode) & set("wax+"):
                    found.append(f"{node.lineno}: open mode {mode!r}")
            elif isinstance(func, ast.Attribute) and func.attr in ("makedirs", "mkdir"):
                if isinstance(func.value, ast.Name) and func.value.id == "os":
                    found.append(f"{node.lineno}: os.{func.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_module_writes_a_file_outside_the_writers(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert writes_outside_the_writers(fh.read()) == []


def test_the_check_finds_each_kind_of_write():
    source = """
import os

def write_file(path):
    with open(path + ".tmp", "wb") as fh:
        os.makedirs(path)

def make_dir(path):
    os.makedirs(path, exist_ok=True)

def elsewhere(path, mode):
    open(path)
    open(path, "rb")
    open(path, encoding="utf-8")
    open(path, "w")
    open(path, mode="ab")
    open(path, "r+")
    open(path, mode)
    os.makedirs(path)
    os.mkdir(path)
"""
    assert writes_outside_the_writers(source) == [
        "15: open mode 'w'",
        "16: open mode 'ab'",
        "17: open mode 'r+'",
        "18: open mode None",
        "19: os.makedirs",
        "20: os.mkdir",
    ]
