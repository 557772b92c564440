"""The package's sources and the README's examples, as written.

The source rules read ``src/cdmr`` with ``ast``. An import its module never
reads, a top-level name that nothing outside its own definition reads, or a
record field that nothing reads outside its own class is left-over code
that no other test can see.  A ``_``-prefixed name is its module's own: no
other module of the package imports it.  A record that only holds values is
a ``NamedTuple``; a dataclass is kept for one that checks its fields.  A
diagnostic is raised with ``warnings.warn``; one function prints it.  One
module, ``cdmr.panels``, forks, pipes, pickles and reaps.
"""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

from cdmr.cli import build_parser

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "cdmr"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
README = (ROOT / "README.md").read_text()


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


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def hooked_attributes():
    """The attributes ``benchmarks/tracing.py`` wraps, its module loaded but nothing installed."""
    spec = importlib.util.spec_from_file_location("cdmr_bench_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr for _, attr, _, _ in tracing.HOOKS + tracing.COUNTERS}


def test_every_top_level_name_is_read():
    """A top-level function, class or assigned name is read by the package
    outside its own definition, by the README example, or as a hooked
    benchmark attribute.  A re-export in ``__init__.py`` does not count."""
    modules = {path: tree for path, tree in TREES.items() if path.name != "__init__.py"}
    read_elsewhere = set().union(*map(read_names, map(ast.parse, readme_blocks("python"))),
                                 hooked_attributes())
    reads = [(stmt, read_names(stmt)) for tree in modules.values() for stmt in tree.body]
    faults = []
    for path, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            faults += [f"{path}:{stmt.lineno}: {name} is read by no command path"
                       for name in names if name not in read_elsewhere
                       and not any(name in read for other, read in reads if other is not stmt)]
    assert not faults, "\n".join(faults)


def is_dataclass(cls):
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def is_named_tuple(cls):
    return any(ast.unparse(base) in ("NamedTuple", "typing.NamedTuple") for base in cls.bases)


def classes():
    """(path, class definition) of every class in the package."""
    return [(path, cls) for path, tree in TREES.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)]


def test_a_dataclass_checks_its_fields():
    """``@dataclass`` compiles its methods with ``exec`` at every import; a
    record that only holds values is a NamedTuple instead."""
    dataclasses = [(path, cls) for path, cls in classes() if is_dataclass(cls)]
    assert dataclasses, "no dataclass found: the rule reads no class"
    faults = [f"{path}:{cls.lineno}: dataclass {cls.name} has no __post_init__; "
              "a record that only holds values is a NamedTuple"
              for path, cls in dataclasses
              if not any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                         for stmt in cls.body)]
    assert not faults, "\n".join(faults)


def test_every_dataclass_field_is_read_outside_its_class():
    """A dataclass or NamedTuple field (not an InitVar) is read as an
    attribute, or through a string constant such as a getattr name,
    somewhere outside its own class."""
    nodes = [node for tree in TREES.values() for node in ast.walk(tree)]
    records = [(path, cls) for path, cls in classes() if is_dataclass(cls) or is_named_tuple(cls)]
    assert "_Key" in {cls.name for _, cls in records}
    faults = []
    for path, cls in records:
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


def starts_warning_line(node):
    """A string literal or f-string whose text starts with ``warning:``."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("warning:"))


def test_only_the_warning_printer_writes_warning_lines():
    """The package raises its diagnostics with ``warnings.warn``, and ``cli._print_warning``
    writes each as a ``warning:`` line, so one ``catch_warnings`` sees every one."""
    printer = next(node for node in ast.walk(TREES[SRC / "cli.py"])
                   if isinstance(node, ast.FunctionDef) and node.name == "_print_warning")
    calls = [(path, node) for path, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and any(map(starts_warning_line, node.args))]
    own = set(map(id, ast.walk(printer)))
    assert any(id(call) in own for _, call in calls), "the rule does not find the printer's own line"
    faults = [f"{path}:{call.lineno}: prints a 'warning:' line; raise it with warnings.warn"
              for path, call in calls if id(call) not in own]
    assert not faults, "\n".join(faults)


PROCESS_CALLS = {"fork", "pipe", "waitpid", "kill", "_exit"}


def process_machinery(tree):
    """(line, what) of each ``os`` process call and each ``pickle`` import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in PROCESS_CALLS):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in PROCESS_CALLS]
        elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
            found.append((node.lineno, "import pickle"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import pickle") for a in node.names if a.name == "pickle"]
    return found


def test_only_the_panel_engine_makes_processes():
    """``cdmr.panels`` is the one module that forks, feeds and reaps workers: no
    other calls os.fork, os.pipe, os.waitpid, os.kill or os._exit, or imports pickle."""
    faults = [f"{path}:{line}: {what}; run jobs through cdmr.panels.in_processes"
              for path, tree in TREES.items() if path.name != "panels.py"
              for line, what in process_machinery(tree)]
    assert not faults, "\n".join(faults)
    own = {what for _, what in process_machinery(TREES[SRC / "panels.py"])}
    assert own == {"import pickle", *(f"os.{call}" for call in PROCESS_CALLS)}, own


def test_readme_example_runs_as_written():
    blocks = readme_blocks("python")
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(200, 8) True" in proc.stdout


def test_readme_command_lines_parse():
    lines = [line.split() for block in readme_blocks("sh") for line in block.splitlines()
             if line.startswith("cdmr ")]
    assert len(lines) >= 11
    parser = build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).command == argv[1], argv
