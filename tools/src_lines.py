"""Raw and code lines of each ``src/casimirdiff`` module.

A code line holds at least one token that is neither a comment nor part of
a docstring (a module, class or function's leading string); blank lines
count as raw lines only.  Run from anywhere:

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "casimirdiff"

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skip)


def main() -> None:
    raw_total = code_total = 0
    print(f"{'module':<16} {'raw':>5} {'code':>5}")
    for path in sorted(SRC.glob("*.py")):
        raw, code = count(path)
        raw_total += raw
        code_total += code
        print(f"{path.name:<16} {raw:>5} {code:>5}")
    print(f"{'total':<16} {raw_total:>5} {code_total:>5}")


if __name__ == "__main__":
    main()
