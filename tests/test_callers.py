"""Every function, option and class member of the public API has a caller.

A module-level public function of ``src/nlspec`` that no call in ``src/``,
``scripts/`` or ``perfbench/`` names is used only by tests, and a defaulted
parameter of a public function that no such call passes is an option only
tests set.  Likewise a dataclass field, property or public method of a
public class whose name no attribute read in those trees names is read only
by tests; reads in the class's own ``__init__`` or ``__post_init__`` do not
count, since normalizing a field is not a use.  Each check matches by name
only.  What it finds goes, or is named below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlspec"
CALLERS = ("src", "scripts", "perfbench")

#: (module, function) kept although no caller calls it, (module, function,
#: parameter) kept although no caller sets it, and (module, "Class.member")
#: kept although nothing reads it, each with why
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


def _decorators(node):
    """The names of a definition's decorators, called or not."""
    return {
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in node.decorator_list
    }


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
                        offset = 0 if "staticmethod" in _decorators(item) else 1
                        yield module, node.name, item, offset


def _public_members():
    """(module, class name, member name) of every dataclass field, property
    and public method of every public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            dataclass = "dataclass" in _decorators(node)
            for item in node.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    yield path.stem, node.name, item.target.id
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield path.stem, node.name, item.name


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


def _reads():
    """Every attribute read in the caller trees, keyed by the attribute name:
    the (file, class, function) that encloses each."""
    reads = {}

    def visit(node, where):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, []).append(where)
        if isinstance(node, ast.ClassDef):
            where = (where[0], node.name, None)
        elif isinstance(node, ast.FunctionDef):
            where = (*where[:2], node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            visit(_parse(path), (path, None, None))
    return reads


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
    assert {k for k in KEPT if len(k) == 2 and "." not in k[1]} <= set(uncalled)


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


def test_every_public_member_has_a_reader():
    reads = _reads()
    read = {}
    for module, owner, name in _public_members():
        own = {(PACKAGE / f"{module}.py", owner, f) for f in ("__init__", "__post_init__")}
        read[(module, f"{owner}.{name}")] = any(w not in own for w in reads.get(name, []))
    unread = sorted(member for member, was_read in read.items() if not was_read)
    assert [member for member in unread if member not in KEPT] == []
    # a kept member that gained a reader, or went, is struck off the list
    assert {k for k in KEPT if len(k) == 2 and "." in k[1]} <= set(unread)
