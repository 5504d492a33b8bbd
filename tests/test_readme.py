"""README's Python blocks, run as written.

The blocks run in order in one namespace. Every expression line that
carries a result comment (``expr  # result``, or the result alone on the
next line) must print that result as its ``repr``. In a result, ``...``
stands for any text, and ``: `` starts a remark that is not part of it.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    return [line for block in blocks for line in block.splitlines()]


def _steps(lines: list[str]) -> list[tuple[str, str | None]]:
    """(code, result comment or None) per statement line of the blocks."""
    steps = []
    for line in lines:
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip() or None
        if code:
            steps.append((code, comment))
        elif comment and steps and steps[-1][1] is None:
            steps[-1] = (steps[-1][0], comment)
    return steps


def _is_expression(code: str) -> bool:
    return isinstance(ast.parse(code).body[0], ast.Expr)


def _matches(result: str, value: str) -> bool:
    expected = result.split(": ", 1)[0]
    pattern = ".*".join(map(re.escape, expected.split("...")))
    return re.fullmatch(pattern, value) is not None


def test_quickstart_results_match_their_comments(capsys):
    namespace: dict = {}
    checked = 0
    for code, comment in _steps(_python_lines()):
        if comment is not None and _is_expression(code):
            value = repr(eval(code, namespace))
            assert _matches(comment, value), f"{code}: got {value}, README says {comment}"
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
    report = namespace["report"]
    assert report.passed
    assert capsys.readouterr().out == report.format_text() + "\n"
