#!/usr/bin/env python
"""Physical line count of ``src/**/*.py`` (stdlib-only, no options).

The number ROADMAP items 1 and 5 are judged by: the total equals
``find src -name '*.py' | xargs cat | wc -l``, broken down by the
package directory under ``src/repro/``.  A report, not a gate — the CI
``tests`` job prints it so every PR's log records it.

Usage::

    python tools/src_lines.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def package_lines():
    """``{package: physical lines}`` over every ``.py`` file in src/."""
    lines = Counter()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        # src/repro/core/x.py -> "repro/core"; src/repro/cli.py -> "repro"
        package = "/".join(parts[:2] if len(parts) > 2 else parts[:1])
        lines[package] += path.read_bytes().count(b"\n")
    return lines


def main():
    lines = package_lines()
    width = max(map(len, lines))
    for package in sorted(lines):
        print(f"{package:<{width}}  {lines[package]:>6}")
    print(f"{'total':<{width}}  {sum(lines.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
