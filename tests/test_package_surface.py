"""Every public function, class and method of the package has a caller.

A coarse net: names match by spelling, not by binding. A method counts as
used when any name, attribute or import anywhere in `src/voxdet` spells it,
so a dead method that shares its name with something else (a dead
`PointCloud.empty` beside `np.empty`, say) passes unseen.
"""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trees(directory: str) -> dict[str, ast.Module]:
    path = os.path.join(ROOT, directory)
    return {name: ast.parse(open(os.path.join(path, name)).read(), filename=name)
            for name in sorted(os.listdir(path)) if name.endswith(".py")}


def _public_definitions(tree: ast.Module):
    """Names of public module-level functions and classes, and of their
    public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _spelled(tree: ast.Module, strings: bool) -> set[str]:
    """Every name, attribute and imported name in the tree, and with
    `strings` every string constant too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller_in_the_package_or_the_benchmark():
    # perfbench names the engine ops it wraps as strings (its _TAPE_OPS)
    package = _trees(os.path.join("src", "voxdet"))
    used = set().union(*(_spelled(t, strings=False) for t in package.values()))
    used |= set().union(*(_spelled(t, strings=True) for t in _trees("perfbench").values()))
    unused = sorted(f"{module}:{name}" for module, tree in package.items()
                    for name in _public_definitions(tree) if name not in used)
    assert unused == []
