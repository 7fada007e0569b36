"""Every public top-level function and class in the package and the
benchmark has a caller there, or a stated reason to stay; every name a
package module imports is used in that module, or has a stated reason;
every field of a package class is read where the class is named; and each
name has one import path, the module that defines it.

A name is reached when a Name or Attribute node anywhere in
src/microgait/*.py or perfbench/*.py refers to it outside its own
definition. Tests do not count as callers. A decorated definition (a
click command, a dataclass) is left out, since its decorator may be what
makes it reachable.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "microgait").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
TREES = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
MODULES = {path.stem: tree for path, tree in TREES.items() if path.parent.name == "microgait"}
TOPS = [(path, node) for path, tree in TREES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]

# public names kept without a caller in those files, each with its reason
KEPT = {
    "measured_cycles": "acceptance criterion 2 derives the device cycles per update with it",
    "cycles_decomposed": "the analytical cycle model, to be reached by cost --model",
    "activate": "the scalar activation that the float64 activation tests pin",
    "iter_frames": "the receive-side frame scanner that a lossy-link session would use",
}


def _refs(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreached() -> dict[str, str]:
    """Public, undecorated top-level definitions with no reference outside
    themselves, as name -> file."""
    total = sum((_refs(tree) for tree in TREES.values()), Counter())
    own = sum((Counter({node.name: _refs(node)[node.name]}) for _, node in TOPS), Counter())
    return {node.name: path.relative_to(ROOT).as_posix() for path, node in TOPS
            if not node.name.startswith("_") and not node.decorator_list
            and total[node.name] - own[node.name] == 0}


def test_every_public_definition_has_a_caller():
    unreached = _unreached()
    missing = {name: where for name, where in unreached.items() if name not in KEPT}
    assert not missing, f"public definitions with no caller (give them one or delete them): {missing}"


def test_kept_names_exist_and_have_no_caller():
    unreached = _unreached()
    gone = sorted(set(KEPT) - {node.name for _, node in TOPS})
    assert not gone, f"KEPT names that no longer exist: {gone}"
    reached = sorted(set(KEPT) - set(unreached))
    assert not reached, f"KEPT names that now have a caller (drop them from KEPT): {reached}"


# imported names a module keeps without using them, as "module.name", each with its reason
KEPT_IMPORTS = {
    "kernel.expected_counters": "perfbench reads it as kernel.expected_counters",
    "kernel.dequantize_action": "perfbench's tracer rebinds it as kernel.dequantize_action",
    "harness.dequantize_action": "perfbench's tracer rebinds it as harness.dequantize_action",
}


def _unused_imports() -> set[str]:
    """Names bound by an import in a package module that no Name or
    Attribute node of that module refers to, as module.name."""
    unused = set()
    for stem, tree in MODULES.items():
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        unused |= {f"{stem}.{name}" for name in imported - set(_refs(tree))}
    return unused


# leaf modules import no package module but these, so they stay at the bottom of the import graph
LEAVES = ("gait", "inputs", "kinematics")
LEAF_IMPORTS = {"errors", "inputs"}


def _package_imports(tree) -> set[str]:
    """The package modules that a module imports, by name within the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["microgait" if node.level else None, node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {d.split(".")[1] if "." in d else d
                  for d in dotted if d.split(".")[0] == "microgait"}
    return found


def test_leaf_modules_import_only_errors_and_inputs():
    extra = {leaf: sorted(_package_imports(MODULES[leaf]) - LEAF_IMPORTS) for leaf in LEAVES}
    assert not any(extra.values()), f"leaf modules importing other package modules: {extra}"


def test_every_import_is_used():
    unused = _unused_imports()
    missing = sorted(unused - set(KEPT_IMPORTS))
    assert not missing, f"imports the module never uses (use or delete them): {missing}"
    stale = sorted(set(KEPT_IMPORTS) - unused)
    assert not stale, f"KEPT_IMPORTS names that are used or gone (drop them): {stale}"


# an import from the package or one of its modules, found in a file's text so
# that the code strings a test runs in a fresh interpreter are read too
PACKAGE_IMPORT = re.compile(r"from\s+(microgait(?:\.(\w+))?)\s+import\s+(\([^)]*\)|.*)")


def _defined(tree) -> set[str]:
    """The names a module binds at its top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_package_namespace_exports_nothing():
    init = MODULES["__init__"]
    assert ast.get_docstring(init) and len(init.body) == 1, \
        "__init__.py holds only its docstring: import each name from the module that defines it"


def test_each_name_is_imported_from_the_module_that_defines_it():
    defined = {stem: _defined(tree) for stem, tree in MODULES.items() if stem != "__init__"}
    wrong = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        for match in PACKAGE_IMPORT.finditer(path.read_text()):
            dotted, module, names = match.groups()
            for name in re.sub(r"#.*", "", names).strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name and name not in (defined.get(module, ()) if module else defined):
                    wrong.append(f"{path.name}: from {dotted} import {name}")
    assert not wrong, f"names imported through a module that does not define them: {wrong}"


def test_tracing_targets_resolve(monkeypatch):
    """Every module attribute the benchmark's tracer rebinds exists, so a
    change that drops a traced name fails here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    missing = [f"{module.__name__}.{attr}" for modules, attr, _, _ in tracing.TARGETS
               for module in modules if not callable(getattr(module, attr, None))]
    assert not missing, f"tracing.TARGETS names that do not resolve: {missing}"


def _fields(cls: ast.ClassDef) -> set[str]:
    """A class's fields: the annotated names of a dataclass body, and every
    `self.x` a method of the class stores."""
    names = set()
    if any("dataclass" in _refs(d) for d in cls.decorator_list):
        names |= {node.target.id for node in cls.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    return names | {node.attr for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"}


# records whose fields are read by callers of the function that returns them,
# callers that never name the class; a read in any module counts for these
READ_BY_RETURN = {
    "EpisodeResult": "run_episode returns it; cli reads its reward and inference count, perfbench its steps",
    "OpCounters": "expected_counters and infer_int8 return it; cost and perfbench read its counts",
    "Frame": "decode_frame returns it; codec --decode and perfbench's selftest read its fields",
    "IkSolution": "ik returns it; cmd_ik prints its angles and motor positions",
    "CycleCoeffs": "fit_coeffs returns it; perfbench's checks read the fitted coefficients",
}


def test_every_field_is_read():
    """A field is read when its class's own module, or a module that names
    the class, reads the attribute; for READ_BY_RETURN, any module does."""
    loads = {path: {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
             for path, tree in TREES.items()}
    refs = {path: _refs(tree) for path, tree in TREES.items()}
    classes = [(path, cls) for path, tree in TREES.items() if path.parent.name == "microgait"
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    gone = sorted(set(READ_BY_RETURN) - {cls.name for _, cls in classes})
    assert not gone, f"READ_BY_RETURN names that no longer exist: {gone}"
    unread = []
    for path, cls in classes:
        loaded = set().union(*(loads[other] for other in TREES if cls.name in READ_BY_RETURN
                               or other == path or refs[other][cls.name]))
        unread += [f"{path.stem}.{cls.name}.{name}" for name in sorted(_fields(cls) - loaded)]
    assert not unread, f"fields that no module naming their class reads (delete them): {unread}"
