"""Line coverage of ``src/pcfprod`` under the test suite, with the standard library alone.

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``,
for the tests that start threads), then prints every executable line of
``src/pcfprod`` that no test ran and that ``UNRUN`` does not name.  It exits 1
if there is such a line, if a line ``UNRUN`` names ran or moved, or
if a test failed.  Extra arguments go to pytest::

    PYTHONPATH=src python tests/linecov.py
    PYTHONPATH=src python tests/linecov.py -q --durations=5

A line counts as executable where the compiled module has an instruction on it
(so a ``def`` line runs at import), and as run where any of its code objects
ran it.  Tracing stops in a code object once every one of its lines has run,
so the traced suite takes two to three times its untraced time.
"""

import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcfprod"

# (module, line number, the line stripped, why no test runs it); a line that moves
# is reported until its number here follows it
UNRUN = [
    ("cli.py", 515, "sys.exit(code)",
     "the console script's exit; tests call main(standalone_mode=False) in process"),
    ("cli.py", 520, "main()",
     "python -m pcfprod.cli; `python tests/cli_cases.py python -m pcfprod.cli` runs it"),
    ("hermsum.py", 93, "import numpy as np", "under TYPE_CHECKING: for type checkers only"),
]

_left: dict = {}  # code object -> its lines not run yet; empty for code outside SRC


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _line(frame, event, arg):
    left = _left[frame.f_code]
    left.discard(frame.f_lineno)
    if not left:
        frame.f_trace_lines = False
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        left = _left[code] = _lines(code) if code.co_filename.startswith(str(SRC)) else set()
    if not left:
        return None
    left.discard(frame.f_lineno)
    return _line


def executable(path: Path) -> set[int]:
    """The lines of a module that hold an instruction, in any of its code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= _lines(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(args: list[str]) -> int:
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, left in _left.items():
        if code.co_filename.startswith(str(SRC)):
            ran.setdefault(code.co_filename, set()).update(_lines(code) - left)
    faults, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable(path)
        total += len(lines)
        unrun = lines - ran.get(str(path), set())
        for module, n, text, _ in UNRUN:
            if module == path.name:
                if n not in unrun or source[n - 1].strip() != text:
                    faults.append(f"{module}:{n}: pinned as unrun {text!r}, but it ran or moved")
                unrun.discard(n)
        faults += [f"{path.name}:{n}: never ran: {source[n - 1].strip()}" for n in sorted(unrun)]
    print(f"linecov: {total} executable lines in {SRC.name}, {len(UNRUN)} pinned as unrun, "
          f"{len(faults)} faults")
    for fault in faults:
        print(fault)
    return 1 if faults or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
