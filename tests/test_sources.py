"""The package's sources and the README's library example, as written.

The source rules read ``src/cdmr`` with ``ast``. An import its module never
reads, a ``cdmr.constants`` name that no module reads, or a dataclass field
that nothing reads outside its own class is left-over code that no other test
can see.  A ``_``-prefixed name is its module's own: no other module of the
package imports it.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "cdmr"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def read_names(tree):
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_import_is_read():
    assert SRC / "cli.py" in TREES
    faults = []
    for path, tree in TREES.items():
        if path.name == "__init__.py":
            continue
        read = read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        faults.append(f"{path}:{node.lineno}: {name} is imported but never read")
    assert not faults, "\n".join(faults)


def test_no_module_imports_another_modules_private_name():
    faults = [f"{path}:{node.lineno}: {alias.name} is private to {node.module or '.'}"
              for path, tree in TREES.items() for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and (node.level or (node.module or "").split(".")[0] == "cdmr")
              for alias in node.names
              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not faults, "\n".join(faults)


def test_every_constant_is_read():
    constants = SRC / "constants.py"
    read = set().union(*map(read_names, TREES.values()))
    faults = [f"{constants}:{node.lineno}: {target.id} is read by no module"
              for node in TREES[constants].body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id not in read]
    assert not faults, "\n".join(faults)


def test_every_dataclass_field_is_read_outside_its_class():
    """A field (not an InitVar) is read as an attribute, or through a string
    constant such as a getattr name, somewhere outside its own class."""
    nodes = [node for tree in TREES.values() for node in ast.walk(tree)]
    faults = []
    for path, tree in TREES.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)):
                continue
            own = set(map(id, ast.walk(cls)))
            read = set()
            for node in nodes:
                if id(node) in own:
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "InitVar" not in ast.unparse(stmt.annotation)
                        and stmt.target.id not in read):
                    faults.append(f"{path}:{stmt.lineno}: {cls.name}.{stmt.target.id} "
                                  "is never read outside its class")
    assert not faults, "\n".join(faults)


def test_readme_example_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(200, 8) True" in proc.stdout
