"""Every public top-level function and class in the package and the
benchmark has a caller there, or a stated reason to stay.

A name is reached when a Name or Attribute node anywhere in
src/microgait/*.py or perfbench/*.py refers to it outside its own
definition. Tests do not count as callers, and neither does an import in
`__init__.py`. A decorated definition (a click command, a dataclass) is
left out, since its decorator may be what makes it reachable.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "microgait").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
TREES = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
TOPS = [(path, node) for path, tree in TREES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]

# public names kept without a caller in those files, each with its reason
KEPT = {
    "measured_cycles": "acceptance criterion 2 derives the device cycles per update with it",
    "cycles_decomposed": "the analytical cycle model, to be reached by cost --model",
    "fk_oracle": "forward kinematics that the ik tests check against",
    "requantize": "the scalar requantize that the int8 kernel tests check against",
    "action_to_motor_targets": "the closed-form motor targets that the ik tests compare against",
    "dequantize_weights": "the dequantized weights that the quantizer tests check against",
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
