"""Every definition in sfhand is reached from the program, not only from tests.

Each module under ``src/sfhand`` is parsed with ``ast``. A top-level
function or class, a public method, or a dataclass field fails the test
when no code in ``src/`` or ``perfbench/`` names it, apart from its own
definition. A name counts when it appears as a variable, an attribute, a
keyword argument, or a string that is a dotted identifier (``perfbench``
addresses the functions it traces as strings such as ``"Tape.reset"``).
Imports and docstrings do not count. A second scan fails on a name that a
module imports and never uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sfhand"
SEARCHED = (ROOT / "src", ROOT / "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# Test tools, which only tests call.
ALLOWED = {
    "gradcheck.grad_check": "the finite-difference oracle of the gradient tests",
    "data.clips_equal": "the bitwise clip comparison of the file round-trip tests",
    "hand.rect_giou": "the float GIoU oracle that the loss tests compare against",
}


def _docstrings(tree) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_targets(tree) -> set[int]:
    return {id(stmt.target) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}


def named_uses() -> Counter:
    uses: Counter = Counter()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            tree = ast.parse(path.read_text())
            skip = _docstrings(tree) | _field_targets(tree)
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif isinstance(node, ast.keyword) and node.arg:
                    uses[node.arg] += 1
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and DOTTED.fullmatch(node.value)):
                    uses.update(node.value.split("."))
    return uses


def definitions():
    """(qualified name, short name) of every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                yield f"{module}.{node.name}", node.name
                dataclass = _is_dataclass(node)
                for stmt in node.body:
                    if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not stmt.name.startswith("_")):
                        yield f"{module}.{node.name}.{stmt.name}", stmt.name
                    elif (dataclass and isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)):
                        yield f"{module}.{node.name}.{stmt.target.id}", stmt.target.id


def test_no_definition_is_named_only_at_itself():
    uses = named_uses()
    dead = sorted(q for q, name in definitions() if uses[name] == 0 and q not in ALLOWED)
    assert not dead, f"defined but never named in src/ or perfbench/: {dead}"


def test_allowlist_entries_exist_and_are_unused():
    # an allowlisted name that the program starts to use, or that is
    # deleted, must leave the list
    uses = named_uses()
    defined = dict(definitions())
    for qualified in ALLOWED:
        assert qualified in defined, qualified
        assert uses[defined[qualified]] == 0, qualified


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {imported[name]}" for name in imported if name not in used]
    assert not unused, f"imported but never used: {sorted(unused)}"
