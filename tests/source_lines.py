"""Per-module source counts for a change that should make the code smaller.

For every ``*.py`` file of a source directory (default: ``src/parisian_scale``) it
prints the physical lines, the code lines and the AST statements (docstrings left
out), then the totals:

    python tests/source_lines.py [DIR]

Code lines leave out blank lines, comment lines and the lines of docstrings (the
leading string of a module, class or function).  Joining two lines lowers the
physical and code counts but not the statements, so a reduction is best read on
the statements.  Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int, int]:
    """(physical lines, code lines, statements) of one module's source."""
    tree = ast.parse(text)
    docstrings = [node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None]
    docs = {line for doc in docstrings for line in range(doc.lineno, doc.end_lineno + 1)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings)
    return len(text.splitlines()), len(code - docs), statements


def main(root: str) -> None:
    rows = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                rows.append((name, *counts(fh.read())))
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<16}{'lines':>8}{'code':>8}{'stmts':>8}")
    for name, *nums in rows:
        print(f"{name:<16}" + "".join(f"{n:>8,}" for n in nums))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "parisian_scale"))
