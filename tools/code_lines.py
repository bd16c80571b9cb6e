"""Count the code lines of each module of the package.

    python tools/code_lines.py [SOURCE_DIR]

A code line is a physical line that holds part of a statement: blank
lines, comment lines and the lines of a docstring (the string that opens a
module, class or function body) do not count. A statement that spans
several lines counts every line it spans, a multi-line string inside an
expression included. SOURCE_DIR defaults to this checkout's src/spheregap;
one line per module, then the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "spheregap"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
