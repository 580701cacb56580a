"""The package keeps no library code that only tests call: every public
top-level function and class of `src/hhmon` is referenced somewhere in
`src/hhmon` itself (a name, an attribute or an import of that name)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hhmon"

# perfbench counts `tvl1_flow` calls (its `tvl1.pairs` metric) and its
# tracing test calls it, so the one-pair solver entry stays for perfbench.
EXEMPT = {"tvl1.tvl1_flow"}


def test_every_public_definition_is_referenced_in_the_package():
    trees = {str(p.relative_to(SRC).with_suffix("")).replace("/", "."): ast.parse(p.read_text())
             for p in sorted(SRC.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert sorted(set(unused) - EXEMPT) == []
    assert EXEMPT <= set(unused), "an exempt name gained a caller: drop its exemption"
