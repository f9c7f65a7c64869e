#!/usr/bin/env python3
"""Print the line counts of every ``src/nanoheat`` module and their total.

    python scripts/src_lines.py [SRC_DIR] [--against REV]

For each module: all lines, then code lines, the lines that are not blank,
not only a comment and not part of a docstring (of the module, a class or a
function). A line change that only joins expressions or deletes comments
moves the first count but not the second. With ``--against REV``, two more
columns give each module's and the total change in both counts against git
revision REV, whose modules are read with ``git show REV:src/nanoheat/<module>``;
a module missing on one side counts as zero lines there. Uses the standard
library only.
"""
import argparse
import ast
import io
import pathlib
import subprocess
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


def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout
    except subprocess.CalledProcessError as err:
        sys.exit(f"git {' '.join(args)}: {err.stderr.strip()}")


def counts_at(rev: str):
    """{module name: (all lines, code lines)} of ``src/nanoheat`` at git revision ``rev``."""
    paths = [p for p in _git("ls-tree", "--name-only", rev, "src/nanoheat/").split() if p.endswith(".py")]
    return {pathlib.PurePosixPath(p).name: counts(_git("show", f"{rev}:{p}")) for p in paths}


def _row(row, against, name) -> str:
    n_all, n_code, d_all, d_code = row
    return f"{n_all:>6} {n_code:>6}" + (f" {d_all:>+6} {d_code:>+6}" if against else "") + f"  {name}"


def main(argv):
    parser = argparse.ArgumentParser(description="Line counts of the src/nanoheat modules.")
    parser.add_argument("src", nargs="?", type=pathlib.Path, default=ROOT / "src" / "nanoheat",
                        help="directory of the modules (default: src/nanoheat)")
    parser.add_argument("--against", metavar="REV",
                        help="also print the change in both counts against git revision REV")
    args = parser.parse_args(argv)
    now = {p.name: counts(p.read_text(encoding="utf-8")) for p in args.src.glob("*.py")}
    before = counts_at(args.against) if args.against else {}
    print(f"{'all':>6} {'code':>6}" + (f" {'d all':>6} {'d code':>6}" if args.against else "") + "  module")
    total = [0, 0, 0, 0]
    for name in sorted(now.keys() | before.keys()):
        n_all, n_code = now.get(name, (0, 0))
        b_all, b_code = before.get(name, (0, 0))
        row = (n_all, n_code, n_all - b_all, n_code - b_code)
        total = [t + r for t, r in zip(total, row)]
        print(_row(row, args.against, name))
    print(_row(total, args.against, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
