#!/usr/bin/env python3
"""Count the code lines of Python modules: lines holding a token other than
a comment, with docstrings and blank lines excluded.  This is the count a
simplification of ``src/`` is judged on.

Usage: python scripts/line_count.py src/biasforge/*.py

Prints one ``count path`` line per module, then the total.
"""

import ast
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
