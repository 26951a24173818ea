"""Every option of the public API is set by some request, script or
benchmark.  A defaulted or keyword-only parameter of a name in
``weakgiant.__all__`` that no call in src/, scripts/ or perfbench/ passes,
by keyword or by position, is a branch no input reaches: it goes, or it is
listed below with its reason."""

import ast
import inspect
from pathlib import Path

import weakgiant

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "scripts", "perfbench")

#: ``name(parameter)`` kept although no caller sets it, with the reason.
ALLOWED = {
    "from_entries(tol)": "shares _validated's tolerance with from_text(tol), which the CLI sets",
}


def _calls() -> dict:
    """The call nodes under ``CALLERS``, keyed by the called name: the
    function's own name, or the attribute's."""
    calls: dict = {}
    for path in sorted(p for folder in CALLERS for p in (ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _public_callables():
    """``(name, parameters)`` of each function in ``weakgiant.__all__``, each
    class constructor, and each public method of those classes (inherited
    ones too), without ``self`` or ``cls``."""
    for name in weakgiant.__all__:
        obj = getattr(weakgiant, name)
        if inspect.isfunction(obj):
            yield name, list(inspect.signature(obj).parameters.values())
        elif inspect.isclass(obj) and obj.__module__.startswith("weakgiant"):
            try:
                yield name, list(inspect.signature(obj).parameters.values())
            except ValueError:  # an exception with the builtin constructor
                pass
            for attr in dir(obj):
                raw = inspect.getattr_static(obj, attr)
                func = getattr(raw, "__func__", raw)
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__.startswith("weakgiant"):
                    params = list(inspect.signature(func).parameters.values())
                    yield attr, params if isinstance(raw, staticmethod) else params[1:]


def _sets(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    if any(kw.arg in (param.name, None) for kw in call.keywords):  # None: **mapping
        return True
    if param.kind is param.KEYWORD_ONLY:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_options() -> set:
    calls = _calls()
    unset = set()
    for name, params in _public_callables():
        for index, param in enumerate(params):
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            if param.default is param.empty and param.kind is not param.KEYWORD_ONLY:
                continue
            if not any(_sets(call, index, param) for call in calls.get(name, ())):
                unset.add(f"{name}({param.name})")
    return unset


def test_every_public_option_has_a_caller():
    unset = _unset_options()
    assert not unset - ALLOWED.keys(), "options no request, script or benchmark sets"
    assert ALLOWED.keys() <= unset, "allowlisted options that a caller now sets"
