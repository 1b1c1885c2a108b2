"""Count the settable values of the corrdyn package.

Usage:
    python3 tools/settable_values.py [--list] [SRC_DIR]

A settable value is a defaulted positional or keyword-only parameter of a
function or method, or a field with a default of a ``@dataclass``.  Every
``.py`` file under SRC_DIR (default: ``src/corrdyn`` of the checkout this
file lives in) is parsed, never imported.  Prints the count; with
``--list``, one ``file:line name`` per value first.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST):
    """(line, name) of every settable value in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            owner = getattr(node, "name", "<lambda>")
            found += [(a.lineno, f"{owner}({a.arg})") for a in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(item.lineno, f"{node.name}.{item.target.id}")
                      for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None
                      and isinstance(item.target, ast.Name)]
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "corrdyn")
    parser.add_argument("--list", action="store_true", help="list every value")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(args.src).rglob("*.py")):
        values = settable_values(ast.parse(path.read_text(), filename=str(path)))
        total += len(values)
        if args.list:
            for line, name in values:
                print(f"{path.name}:{line} {name}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
