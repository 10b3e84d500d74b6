"""Count the lines of each module of ``src/gtvtomo``.

    python tools/src_size.py [DIR]

Prints, per ``*.py`` file of DIR (``src/gtvtomo`` by default), its total
lines and its code lines, then the totals.  Code lines are the lines that
are not blank, not comment-only and not part of a docstring (the string
that opens a module, class or function body).  Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's source."""
    total = len(source.splitlines())
    not_code = docstring_lines(ast.parse(source))
    code_lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    return total, len(code_lines - not_code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "gtvtomo", help="package directory")
    args = parser.parse_args(argv)
    rows = [(p.name, *count(p.read_text())) for p in sorted(args.dir.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
