"""The library keeps no per-process state: no module of ``weakgiant`` but
the command line rebinds a module global.  What one process keeps between
requests (the parser, the heap policy, the last table read) is the command
line's; what a table derives from itself (moments, fixed points) is kept on
the table."""

import ast
from pathlib import Path

import weakgiant

PACKAGE = Path(weakgiant.__file__).parent


def test_only_the_command_line_has_a_global_statement():
    holders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert set(holders) <= {"cli.py"}, holders
