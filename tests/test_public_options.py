"""Every function and option of the public API is used by some request,
script or benchmark.  A function in ``weakgiant.__all__`` that no call in
src/ (outside its own body), scripts/ or perfbench/ makes, and a defaulted
or keyword-only parameter of a public name that no such call passes, by
keyword or by position, is code no input reaches: it goes, or it is listed
below with its reason.  The same holds for the command line: each flag
of a subcommand is read by the function that runs it, or by ``main``."""

import argparse
import ast
import inspect
import textwrap
from pathlib import Path

import weakgiant

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "scripts", "perfbench")

#: ``name(parameter)`` kept although no caller sets it, with the reason.
ALLOWED = {
    "from_entries(tol)": "shares _validated's tolerance with from_text(tol), which the CLI sets",
}


#: Public functions kept although no caller calls them, with the reason.
UNCALLED = {
    "mu_moments_at": "gate 6 reads its closed-form moments",
    "mean_weak_component_size": "the subcritical theory of the transition-point check (ROADMAP item 5)",
}


def _calls() -> dict:
    """The call nodes under ``CALLERS``, keyed by the called name: the
    function's own name, or the attribute's.  A call inside the body of a
    function of the called name is left out."""
    calls: dict = {}

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in inside:
                calls.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted(p for folder in CALLERS for p in (ROOT / folder).rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), frozenset())
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


def _args_read(func) -> set:
    """The names ``func`` reads as ``args.<name>``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }


def test_every_cli_flag_is_read():
    from weakgiant import cli

    by_main = _args_read(cli.main)
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = {
        f"{name} {action.dest}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        and action.dest not in by_main | _args_read(sub.get_default("func"))
    }
    assert not unread, "flags a subcommand takes but never reads"


def test_every_public_function_has_a_caller():
    calls = _calls()
    uncalled = {
        name
        for name in weakgiant.__all__
        if inspect.isfunction(getattr(weakgiant, name)) and name not in calls
    }
    assert not uncalled - UNCALLED.keys(), "public functions no request, script or benchmark calls"
    assert UNCALLED.keys() <= uncalled, "allowlisted functions that a caller now calls"
