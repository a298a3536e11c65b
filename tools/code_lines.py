#!/usr/bin/env python3
"""Count the code lines of every Python module under a directory.

A line counts when it holds a token that is not a comment and lies
outside every module, class and function docstring.  Blank lines,
comment-only lines and docstring lines do not count; each line of a
multi-line statement or of a multi-line string that is not a docstring
does.  Prints one "<module> <count>" line per module, by relative path,
then "total <count>".

Usage: python3 tools/code_lines.py [DIR]   (DIR defaults to src/desklm)
"""

import argparse
import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=os.path.join(ROOT, "src", "desklm"))
    args = parser.parse_args()
    total = 0
    paths = sorted(os.path.relpath(os.path.join(d, f), args.dir)
                   for d, _, files in os.walk(args.dir) for f in files
                   if f.endswith(".py"))
    for rel in paths:
        with open(os.path.join(args.dir, rel), encoding="utf-8") as fh:
            n = count_code_lines(fh.read())
        print(f"{rel} {n}")
        total += n
    print(f"total {total}")


if __name__ == "__main__":
    main()
