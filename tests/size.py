"""The size ledger: the lines of each ``src/qtriad`` module, and their total.

A line counts when it is neither blank nor a ``#`` comment; docstrings
count. This is ``grep -cvE '^\\s*(#.*)?$'`` on each file. It prints one
``<count> <file>`` line per module and then the total, and gates nothing.

Run it from anywhere::

    python tests/size.py

Pytest does not collect this file: its name does not match ``test_*.py``.
"""

import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtriad"
_UNCOUNTED = re.compile(r"\s*(#.*)?")


def count(path: Path) -> int:
    """The counted lines of one file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(not _UNCOUNTED.fullmatch(line) for line in lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = count(path)
        total += n
        print(f"{n:5} {path.name}")
    print(f"{total:5} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
