"""Count the lines of the library and of the tests.

    python tools/loc.py

prints, for src/curlflux and for tests, the code lines and the total
lines of their Python files.  A code line holds at least one token that
is not part of a comment or of a docstring; blank lines count as total
lines only.  Standard library only.
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src/curlflux", "tests")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(code lines, total lines) of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(code), source.count(b"\n")


def main():
    for tree in TREES:
        top = os.path.join(ROOT, tree)
        paths = sorted(os.path.join(d, f) for d, _, files in os.walk(top)
                       for f in files if f.endswith(".py"))
        code, total = map(sum, zip(*map(count, paths)))
        print("%-14s %5d code lines %5d lines" % (tree, code, total))


if __name__ == "__main__":
    main()
