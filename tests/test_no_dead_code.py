"""Every module-level function and class in src/comotion, and every method
and property of those classes other than dunders, has a user.

A user of a module-level definition is a ``Name`` or ``Attribute`` node
naming it in src/comotion/*.py or bench/*.py. A method or property is only
ever reached through an attribute (``x.name``), so only an ``Attribute``
node counts for it: a local variable or argument of the same name does not.
For both, a string constant in bench/*.py counts too, because the
benchmark's tracer looks functions up by name. Tests do not count: a helper
that only tests call belongs in the test file that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: str) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / directory).glob("*.py"))}


def test_every_module_level_definition_has_a_user():
    src = _trees("src/comotion")
    bench = _trees("bench")
    names, attributes = set(), set()
    for tree in [*src.values(), *bench.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    for tree in bench.values():
        attributes.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    unused = []
    for module, tree in src.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names | attributes:
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in attributes
                ]
    assert not unused, f"nothing in src/comotion or bench/ uses {unused}"
