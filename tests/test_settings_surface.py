"""Every setting of the package is set by some caller, or has a stated reason
to stay: a setting with one value in use is a constant.

A setting is a defaulted parameter of a public top-level function, a
defaulted parameter of a public class's `__init__`, or a defaulted init field
of a public dataclass, in src/microgait/*.py. It is set when some call by
that Name or Attribute, in src/microgait/*.py or perfbench/*.py, passes it by
keyword or by position. A call with `*args` or `**kwargs` sets all of them,
and `replace(obj, name=...)` sets the field `name` of every dataclass. Tests
do not count as callers.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "microgait").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}

# settings no caller sets, each with its reason to stay
KEPT = {
    "main.argv": "perfbench passes it through Tracer.call and the CLI tests call main(args)",
    "leaky_relu.alpha": "the slope is stored in a policy file; tests build policies with other slopes",
    "random_policy.weight_scale": "tests and golden pins draw policies with other weight scales",
    "random_policy.row_scale_spread": "acceptance criterion 5 draws uneven rows for the per-feature scheme",
}


def _name(node) -> str | None:
    """The name a Name or Attribute node refers to; None for other nodes."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
               for dec in node.decorator_list)


def _is_init_field(stmt: ast.AnnAssign) -> bool:
    value = stmt.value
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords))


def _signature(args: ast.arguments, skip_self: bool):
    """(positional names, defaulted names) of a def's parameters."""
    params = [a.arg for a in args.posonlyargs + args.args]
    positional = params[1:] if skip_self else params
    defaulted = params[len(params) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _settings():
    """name -> (positional parameter names, defaulted parameter names) for
    every public top-level function and class in the package."""
    out = {}
    for path in SRC:
        for node in TREES[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                out[node.name] = _signature(node.args, skip_self=False)
            elif isinstance(node, ast.ClassDef):
                init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
                if init:
                    out[node.name] = _signature(init[0].args, skip_self=True)
                elif _is_dataclass(node):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name) and _is_init_field(s)]
                    out[node.name] = ([s.target.id for s in fields],
                                      [s.target.id for s in fields if s.value is not None])
    return out


def _unset() -> tuple[set[str], set[str]]:
    """The defaulted settings, as "func.param", that no call in the package or
    the benchmark sets, and all of them."""
    settings = _settings()
    dataclass_fields = {name: set(pos) for name, (pos, _) in settings.items()}
    set_names = set()
    for tree in TREES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _name(call.func)
            if name == "replace":
                set_names |= {f"{cls}.{kw.arg}" for kw in call.keywords
                              for cls, fields in dataclass_fields.items() if kw.arg in fields}
            if name not in settings:
                continue
            positional, defaulted = settings[name]
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(kw.arg is None for kw in call.keywords):
                set_names |= {f"{name}.{p}" for p in defaulted}
                continue
            set_names |= {f"{name}.{p}" for p in positional[:len(call.args)]}
            set_names |= {f"{name}.{kw.arg}" for kw in call.keywords}
    every = {f"{name}.{p}" for name, (_, defaulted) in settings.items() for p in defaulted}
    return every - set_names, every


def test_every_setting_is_set_by_a_caller():
    unset, _ = _unset()
    missing = sorted(unset - set(KEPT))
    assert not missing, f"settings no caller sets (make them constants): {missing}"


def test_kept_settings_exist_and_are_unset():
    unset, every = _unset()
    gone = sorted(set(KEPT) - every)
    assert not gone, f"KEPT settings that no longer exist: {gone}"
    now_set = sorted(set(KEPT) - unset)
    assert not now_set, f"KEPT settings that a caller now sets (drop them from KEPT): {now_set}"
