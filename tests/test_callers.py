"""Every function and option of the public API has a caller.

A module-level public function of ``src/nlspec`` that no call in ``src/``,
``scripts/`` or ``perfbench/`` names is used only by tests, and a defaulted
parameter of a public function that no such call passes is an option only
tests set; either goes, or it is named below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlspec"
CALLERS = ("src", "scripts", "perfbench")

#: (module, function) kept although no caller calls it, and (module,
#: function, parameter) kept although no caller sets it, each with why
KEPT = {
    ("pauli", "eigendecompose"): (
        "perfbench/tracing.py wraps it by name; it goes with the next benchmark change "
        "(ROADMAP item 1)"
    ),
    ("sampling", "noisy_response"): (
        "perfbench/tracing.py wraps it by name; it goes with the next benchmark change "
        "(ROADMAP item 1)"
    ),
    ("reference", "stepwise_subtraction"): "a reference route that the tests compare against",
    ("cli", "main", "argv"): "the entry point that the tests drive; the console script passes none",
    ("sampling", "noisy_response", "rules"): (
        "perfbench/tracing.py wraps the function by name; both go with the next benchmark "
        "change (ROADMAP item 1)"
    ),
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_functions():
    """(module, class name, function node, positional offset) of every
    public module-level function (class name None) and public method of a
    public class; the offset counts the ``self`` or ``cls`` that a call does
    not pass."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, None, node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list
                        )
                        yield module, node.name, item, 0 if static else 1


def _defaulted(function, offset):
    """(name, positional index or None) of each parameter with a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls():
    """Every call in the caller trees, keyed by the called name."""
    calls = {}
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, index):
    if any(k.arg in (name, None) for k in call.keywords):  # None: **mapping
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_public_function_has_a_caller():
    calls = _calls()
    functions = {
        (module, function.name)
        for module, owner, function, _ in _public_functions()
        if owner is None
    }
    uncalled = sorted(f for f in functions if f[1] not in calls)
    assert [f for f in uncalled if f not in KEPT] == []
    # a kept function that gained a caller, or went, is struck off the list
    assert {k for k in KEPT if len(k) == 2} <= set(uncalled)


def test_every_defaulted_parameter_has_a_caller():
    calls = _calls()
    defaulted = {
        (module, function.name, name): any(
            _passes(call, name, index) for call in calls.get(function.name, [])
        )
        for module, _, function, offset in _public_functions()
        for name, index in _defaulted(function, offset)
    }
    unset = sorted(option for option, passed in defaulted.items() if not passed)
    assert [option for option in unset if option not in KEPT] == []
    # a kept option that went is struck off the list
    assert {k for k in KEPT if len(k) == 3} <= set(defaulted)
