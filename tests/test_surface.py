"""Every public name has a use: a caller in src outside its own
definition, a caller in perfbench/, or a paper fact that README names."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "varword").rglob("*.py"))}


def _names_used(node) -> set:
    """Names the code under ``node`` reads, imports or reaches as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return any(isinstance(t, ast.Name) and t.id in (name, "__all__") for t in targets)


def _public(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


PERFBENCH = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8"))) for p in (ROOT / "perfbench").glob("*.py")))
README = {
    ident
    for span in re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    for ident in re.findall(r"[A-Za-z_]\w*", span)
}


@pytest.mark.parametrize("path", [p for p, tree in SRC.items() if _public(tree)], ids=lambda p: p.stem)
def test_every_public_name_has_a_use(path):
    unused = []
    for name in _public(SRC[path]):
        in_src = any(
            name in _names_used(node)
            for p, tree in SRC.items()
            for node in tree.body
            if not (p == path and _defines(node, name))
        )
        if not (in_src or name in PERFBENCH or name in README):
            unused.append(name)
    assert unused == []

