"""List every line of ``src/ofpca`` that the test suite never executes.

Run from the root of a checkout:

    python tests/line_coverage.py

It runs ``tests`` in this process through ``pytest.main``, with
``sys.settrace`` and ``threading.settrace`` recording each line executed
in a file under ``src/ofpca``; frames of other files are not traced.
The executable lines of a module are those that ``co_lines()`` names in
its compiled code and in every code object nested in it.  Each one never
executed prints as ``path:line: source``, then a count.  A line that
runs only in a child process (``cli.py``'s ``sys.exit(main())``) is
listed too.  Stdlib only; the exit status is pytest's.
"""

import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ofpca"
PREFIX = str(PACKAGE) + os.sep


def executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    import pytest

    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PREFIX):
            return None
        return local(frame, event, arg)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        text = source.splitlines()
        for line in sorted(executable_lines(code)):
            if (str(path), line) not in hit:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} executable line(s) of src/ofpca never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
