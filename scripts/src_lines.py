#!/usr/bin/env python3
"""Print the line counts of every ``src/nanoheat`` module and their total.

    python scripts/src_lines.py [SRC_DIR]

For each module: all lines, then code lines, the lines that are not blank,
not only a comment and not part of a docstring (of the module, a class or a
function). A line change that only joins expressions or deletes comments
moves the first count but not the second. Uses the standard library only.
"""
import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield from range(first.lineno, first.end_lineno + 1)


def counts(source: str):
    """(all lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code.difference_update(_docstring_lines(ast.parse(source)))
    return len(source.splitlines()), len(code)


def main(argv):
    src = pathlib.Path(argv[0]) if argv else ROOT / "src" / "nanoheat"
    total_all = total_code = 0
    print(f"{'all':>6} {'code':>6}  module")
    for path in sorted(src.glob("*.py")):
        n_all, n_code = counts(path.read_text(encoding="utf-8"))
        total_all += n_all
        total_code += n_code
        print(f"{n_all:>6} {n_code:>6}  {path.name}")
    print(f"{total_all:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
