"""Physical and code lines of each module of `src/monopart`, and in total.

A code line holds a token that is not a comment, and lies outside every
docstring (found with `ast`, as `tools/line_coverage.py` finds them); a
line of code with a trailing comment counts.  Blank lines, comment lines
and docstring lines are not code.  Usage, from the repository root:

    python tools/line_count.py
"""

from __future__ import annotations

import ast
import io
import tokenize

from line_coverage import PACKAGE, ROOT, _is_docstring

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for parent in ast.walk(ast.parse(source)):
        body = getattr(parent, "body", None)
        if isinstance(body, list) and body and _is_docstring(body[0], parent):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<32} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{str(path.relative_to(ROOT)):<32} {lines:>6} {code:>6}")
    print(f"{'total':<32} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
