#!/usr/bin/env python3
"""Line trace of the package under the Tier-1 tests.

    python3 scripts/linecov.py [PYTEST_ARGS...]

Runs pytest in this process (``-q -p no:cacheprovider tests`` unless
arguments are given) with a ``sys.settrace`` hook that records every
line of ``src/smachine`` that runs, then prints, for each module, the
lines holding code that never ran, as ranges.  A line counts as code
when a compiled code object of the module maps an instruction to it.
Code run only in a child process (a CLI subprocess, a process pool
worker) is not seen.

Tracing slows the run several times over, and a test that counts what
the garbage collector frees can fail under the tracer (its frames hold
the trace function).  The script reports lines only: it passes no
verdict on the tests, and exits 0 once pytest has run.  Stdlib and
pytest only; not part of Tier-1.
"""

from __future__ import annotations

import os
import sys
import threading
from itertools import groupby
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smachine"


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as runs: ``3, 7-9``."""
    out = []
    for _, run in groupby(enumerate(lines), lambda p: p[1] - p[0]):
        first, *rest = (n for _, n in run)
        out.append(f"{first}-{rest[-1]}" if rest else str(first))
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}  # absolute path -> lines that ran
    tracers: dict[str, object] = {}  # co_filename -> its line tracer, None outside the package

    def tracer(seen: set[int]):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.abspath(name)
            tracers[name] = tracer(ran.setdefault(path, set())) if path.startswith(prefix) else None
        return tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status {int(code)}; lines of src/smachine with code that never ran in this process:")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - ran.get(str(path), set()))
        print(f"{path.name:20} {ranges(missed) if missed else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
