"""Count the code lines of Python files: the lines that hold a token that is
not a comment, a docstring or whitespace. A token that spans lines, such as
a multi-line string that is not a docstring, makes each line it spans a code
line; a docstring is the string statement that opens a module, class or
function body.

    python tools/codelines.py src/promptopt [PATH ...]

Each path is a .py file or a directory searched for .py files. It prints one
line per file, its count and its path, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code
BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python module `source`."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in BLANK or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
