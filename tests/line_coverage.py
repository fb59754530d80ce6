"""Line coverage of `src/polaris` under the tier-1 suite, stdlib only.

Run from the repository root:

    python tests/line_coverage.py

It runs the tier-1 suite (pytest over `tests` and `bench/tests`) in this
process under `sys.settrace` and `threading.settrace`, and counts the
function-body lines of `src/polaris`: the lines that each function's
code object maps to in `co_lines`, less its `def` line.  Only this
process is traced, so what the tests reach only through a subprocess
(`python -m polaris ...`) counts as unreached.  A function stops being
traced once all of its lines have run, which keeps the run to minutes.

It prints reached/total and each unreached line, and exits 1 when an
unreached line is not in `UNREACHED`, when an entry there was reached,
or when an entry's text no longer occurs in its file; it exits with
pytest's code when the suite fails.  `UNREACHED` names each line that
no in-process test reaches, by its file and its exact text, with the
reason it stays.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polaris"

# (file in src/polaris, exact line text less indentation, reason)
UNREACHED = (
)


def own_lines(code) -> set:
    """The body lines of a function's code object, less its `def` line;
    none for a module or class body (no CO_NEWLOCALS flag)."""
    if not code.co_flags & 0x2:
        return set()
    return {line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def body_lines(code) -> set:
    """The body lines of every function under `code`."""
    out = own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= body_lines(const)
    return out


def package_lines() -> dict:
    """{file name: set of function-body line numbers} for `src/polaris`."""
    return {path.name: body_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
            for path in sorted(PACKAGE.glob("*.py"))}


def run_traced(args) -> tuple:
    """Runs pytest with `args` under the line tracer; returns pytest's exit
    code and {file name: set of lines run} for `src/polaris`."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits = {}
    left = {}   # code object -> its body lines not yet run

    def trace(frame, event, arg):
        code = frame.f_code
        rest = left.get(code)
        if rest is None:
            ours = code.co_filename.startswith(prefix)
            rest = left[code] = own_lines(code) if ours else set()
        if not rest:
            return None
        ran = hits.setdefault(Path(code.co_filename).name, set())

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                rest.discard(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def check(texts: dict, missed: dict) -> list:
    """The problems to report: unreached lines missing from UNREACHED,
    entries whose text is gone, and entries on no unreached line."""
    listed = {(name, text) for name, text, _ in UNREACHED}
    problems = []
    for name, text, _ in UNREACHED:
        at = [i + 1 for i, line in enumerate(texts[name]) if line.strip() == text]
        if not at:
            problems.append(f"stale entry, text gone: {name}: {text}")
        elif not set(at) & missed[name]:
            problems.append(f"entry reached: {name}: {text}")
    for name in sorted(missed):
        for line in sorted(missed[name]):
            text = texts[name][line - 1].strip()
            if (name, text) not in listed:
                problems.append(f"unreached, not in UNREACHED: {name}:{line}: {text}")
    return problems


def main() -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the tests that run `python -m polaris` find the package the same way
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, hits = run_traced(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                             str(ROOT / "tests"), str(ROOT / "bench" / "tests")])
    lines = package_lines()
    texts = {name: (PACKAGE / name).read_text(encoding="utf-8").splitlines() for name in lines}
    missed = {name: lines[name] - hits.get(name, set()) for name in lines}
    total = sum(map(len, lines.values()))
    print(f"\nsrc/polaris function-body lines reached in process: "
          f"{total - sum(map(len, missed.values()))}/{total}")
    for name in sorted(missed):
        for line in sorted(missed[name]):
            print(f"  {name}:{line}: {texts[name][line - 1].strip()}")
    problems = check(texts, missed)
    for problem in problems:
        print(problem)
    if code:
        print(f"pytest exited {code}")
        return code
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
