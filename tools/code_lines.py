"""Count the code lines of each module of the regnear package.

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring (the leading string of a
module, class or function).  Blank lines, comment lines and docstrings
do not count; a statement that spans several lines counts each of them.

Run from the repository root:

    python3 tools/code_lines.py [package directory]
    python3 tools/code_lines.py --against REV [package directory]

The first form prints one count per module and the total.  The second
also exports REV with `git archive` (golden.export) into a temporary
directory and prints, per module and in total, the count at REV, the
count in the working tree and the difference; a module that exists on
one side only counts 0 on the other.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(package: Path) -> dict:
    """The code lines of each module of package, by file name."""
    return {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}


def compare(new: dict, old: dict) -> list[str]:
    """Report lines of two counts, new against old: per module of either
    side, and in total, the old count, the new one and the difference."""
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(set(new) | set(old))]
    rows.append(("total", sum(old.values()), sum(new.values())))
    return ([f"{'module':<16}{'before':>8}{'after':>8}{'change':>8}"]
            + [f"{name:<16}{a:>8}{b:>8}{b - a:>+8}" for name, a, b in rows])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default="src/regnear",
                        help="the package directory (default: src/regnear)")
    parser.add_argument("--against", metavar="REV",
                        help="also count the package at REV and print the difference")
    args = parser.parse_args(argv[1:])
    package = Path(args.package)
    new = counts(package)
    if not args.against:
        for name, count in new.items():
            print(f"{name:<16}{count:>6}")
        print(f"{'total':<16}{sum(new.values()):>6}")
        return 0
    from golden import ROOT, export  # tools/ is the script's directory
    with tempfile.TemporaryDirectory(prefix="code-lines-") as tmp:
        export(args.against, Path(tmp))
        old = counts(Path(tmp) / package.resolve().relative_to(ROOT))
    print(f"working tree against {args.against}")
    print("\n".join(compare(new, old)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
