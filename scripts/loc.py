#!/usr/bin/env python3
"""Size of the ``specrad`` package source, in three counts, and of its tooling.

    python scripts/loc.py

Prints, for ``src/specrad``:

- ``lines``: every line of every module, as ``wc -l`` counts them;
- ``code lines``: the lines that hold a Python token, less docstrings,
  comments and blank lines;
- ``__all__``: the number of public names the package in ``src`` exports;

and the ``wc -l`` lines of the modules in ``scripts/`` and in ``tests/``.

It only reports: no count makes it fail.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specrad"

# tokens that are not code: layout and comments
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def _lines(directory: Path) -> int:
    return sum(path.read_text(encoding="utf-8").count("\n") for path in sorted(directory.glob("*.py")))


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import specrad

    texts = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    print(f"lines:      {_lines(PACKAGE)}")
    print(f"code lines: {sum(map(_code_lines, texts))}")
    print(f"__all__:    {len(specrad.__all__)}")
    print(f"scripts/:   {_lines(ROOT / 'scripts')} lines")
    print(f"tests/:     {_lines(ROOT / 'tests')} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
