"""The package keeps no library code that only tests call: every public
top-level function and class of `src/hhmon` is referenced somewhere in
`src/hhmon` itself (a name, an attribute or an import of that name).  And
importing the command line loads none of the standard library's heavier
modules, which only some commands need and import where they use them."""

import ast
import os
import subprocess
import sys
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


# Each is absent after `import hhmon.cli`; `workers` imports `signal` and
# `multiprocessing` inside the functions that use them.
NOT_AT_IMPORT = {"multiprocessing", "concurrent", "subprocess", "asyncio", "logging", "signal",
                 "socket", "selectors", "unittest", "email", "xml"}


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, hhmon.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = set(out.split())
    assert "hhmon" in loaded
    assert sorted(NOT_AT_IMPORT & loaded) == []
