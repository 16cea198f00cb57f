"""The README's Python examples run, and print what their comments say."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# A comment that starts with a number: the number, then "..." when it is
# only a prefix of the output.
NUMBER_COMMENT = re.compile(r"#\s*(-?\d[\d.]*?)(\.\.\.)?(?=\s|$)")


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def claims(block: str) -> dict[int, tuple[str, bool]]:
    """The print statements whose comment starts with a number, by line:
    (number, whether it is a prefix)."""
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    out = {}
    for stmt in ast.parse(block).body:
        call = getattr(stmt, "value", None)
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"):
            continue
        match = NUMBER_COMMENT.match(comments.get(stmt.end_lineno, ""))
        if match:
            out[stmt.lineno] = (match.group(1), match.group(2) is not None)
    return out


def test_readme_has_numbered_prints():
    blocks = python_blocks()
    assert len(blocks) >= 3
    assert sum(len(claims(block)) for block in blocks) >= 3


def test_readme_python_blocks_run_and_print_their_numbers():
    for block in python_blocks():
        printed: list[str] = []
        namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
        wanted = claims(block)
        for stmt in ast.parse(block).body:
            printed.clear()
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
            if stmt.lineno in wanted:
                number, prefix = wanted[stmt.lineno]
                (line,) = printed
                if prefix:
                    assert line.startswith(number), (line, number)
                else:
                    assert line == number, (line, number)
