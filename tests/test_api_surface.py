"""The package keeps no library code that only tests call: every public
top-level function and class of `src/hhmon` is referenced somewhere in
`src/hhmon` itself (a name, an attribute or an import of that name).  No
module reads another's private names.  And importing the command line
loads none of the standard library's heavier modules, which only some
commands need and import where they use them.  Only `artifacts` and a
short list of exempt functions open files, and only `artifacts` and the
kernel compile delete them.  Only the worker pool forks, and only three
places call into C through ctypes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# The private modules behind `backend`, which picks one of them.
PRIVATE_IMPORTS = {("backend", "_purekernels"), ("backend", "_accel")}


def _private_reads(tree, module):
    """`module:line: name` for each private name of another hhmon module
    that the module's code imports or reads as an attribute."""
    modules = set()  # the names hhmon modules are bound to here
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hhmon"):
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in PRIVATE_IMPORTS:
                    yield f"{module}:{node.lineno}: {node.module or ''}.{alias.name}"
                if not node.module or node.module == "hhmon":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield f"{module}:{node.lineno}: {node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    found = []
    for p in sorted(SRC.rglob("*.py")):
        module = str(p.relative_to(SRC).with_suffix("")).replace("/", ".").removesuffix(".__init__")
        found += _private_reads(ast.parse(p.read_text()), module)
    assert found == []


# Each is absent after `import hhmon.cli`; `workers` imports `signal` and
# `multiprocessing` inside the functions that use them.
NOT_AT_IMPORT = {"multiprocessing", "concurrent", "subprocess", "asyncio", "logging", "signal",
                 "socket", "selectors", "unittest", "email", "xml"}


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, hhmon.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    # the first import compiles the kernel library if it is missing, which
    # loads subprocess; the probe measures an import that finds it built
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
    loaded = set(out.split())
    assert "hhmon" in loaded
    assert sorted(NOT_AT_IMPORT & loaded) == []


# The only code that opens a file: the reader and writer of the files stages
# hand each other, the frame writers inside a directory `save_sequence`
# publishes or `flow` stages, the hash of the C kernels' source and the
# command lock.
OPENERS = {"artifacts", "frameio.write_ppm", "frameio.write_flo2", "_accel.library_path",
           "cli._command_lock"}

# The only code that deletes a file or a tree: `artifacts` (`remove`, and
# the temps of `staging` and `publish`) and the compile of the C kernels, which removes its
# temp and the libraries of other keys.
DELETERS = {"artifacts", "_accel.build"}
_DELETES = {("shutil", "rmtree"), ("os", "remove"), ("os", "unlink"), ("os", "rmdir")}


def _opens(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id in ("os", "io"))


def _deletes(node):
    # a delete passed as a value, not called, counts too
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in _DELETES)


def _sites(node, where, hit):
    """The dotted name of the definition around each node under node that
    `hit` accepts."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        elif hit(child):
            yield where
        yield from _sites(child, inner, hit)


def _check_only(allowed, hit):
    found = set()
    for p in sorted(SRC.rglob("*.py")):
        module = str(p.relative_to(SRC).with_suffix("")).replace("/", ".").removesuffix(".__init__")
        found.update(_sites(ast.parse(p.read_text()), module, hit))
    covers = lambda allow, name: name == allow or name.startswith(allow + ".")  # noqa: E731
    assert sorted(n for n in found if not any(covers(a, n) for a in allowed)) == []
    assert sorted(a for a in allowed if not any(covers(a, n) for n in found)) == [], "stale"


def test_only_the_allowed_code_opens_a_file():
    _check_only(OPENERS, _opens)


def test_only_the_allowed_code_deletes_a_file():
    _check_only(DELETERS, _deletes)


# The only code that imports each of these modules: the worker pool forks,
# and ctypes serves the kernel binding, the pool's OpenBLAS thread count and
# the command line's heap thresholds.
IMPORTERS = {"multiprocessing": {"workers"}, "ctypes": {"_accel", "workers", "cli"}}


def _imports(module):
    def hit(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == module for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and not node.level
                and node.module.split(".")[0] == module)
    return hit


@pytest.mark.parametrize("module", sorted(IMPORTERS))
def test_only_the_allowed_code_imports_multiprocessing_or_ctypes(module):
    _check_only(IMPORTERS[module], _imports(module))
