"""The line guard: every line of the package's functions runs in a test.

Tracing starts when this file is imported, before any test imports
``moricensus``, so the code that runs as the package's classes are
created counts; it stops when collection ends.  From then on only the
call phase of each example-based test is traced.  Hypothesis tests are
not: their inputs can change from run to run, so a line that only a
generated example reaches would make the verdict flaky.  Child processes
are not traced either.

When the whole suite ran (every ``tests/test_*.py`` collected, nothing
deselected, every test passed), the session lists each line of a
function or method in the package that never ran, as
``module:line: source``, and fails.  A partial run reports nothing.
"""

import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def code_lines(path) -> set[int]:
    """Lines of the functions and methods in the file at ``path`` that
    hold an instruction; module and class bodies do not count."""
    stack = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= _lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _watch(code):
    """The lines of ``code`` not yet run, and the local trace function
    that strikes them off; it stops line events once none is left."""
    unrun = _lines(code)

    def local(frame, event, arg):
        unrun.discard(frame.f_lineno)
        if not unrun:
            frame.f_trace_lines = False
        return local

    return unrun, local


class LineTracer:
    """Records which lines of the ``.py`` files in ``directory`` run.

    ``trace`` is the function to pass to ``sys.settrace``.  Once every
    line of a code object has run, its calls are no longer traced.
    """

    def __init__(self, directory):
        directory = Path(directory).resolve()
        inside = {}  # file name -> whether the file is in ``directory``
        # id(code) -> (code, its lines not yet run, its local trace function)
        self.codes = codes = {}

        def trace(frame, event, arg):
            code = frame.f_code
            filename = code.co_filename
            if not inside.get(filename, True):
                return None
            try:
                _, unrun, local = codes[id(code)]
            except KeyError:
                if filename not in inside:
                    inside[filename] = Path(filename).resolve().parent == directory
                    if not inside[filename]:
                        return None
                _, unrun, local = codes[id(code)] = (code, *_watch(code))
            return local(frame, event, arg) if unrun else None

        self.trace = trace

    def unrun(self, files) -> list[str]:
        """``"name:line: source"`` for each function or method line not
        run, of each ``(name, path)`` in ``files``."""
        ran = {}
        for code, unrun, _ in self.codes.values():
            ran.setdefault(Path(code.co_filename).resolve(), set()).update(
                _lines(code) - unrun)
        entries = []
        for name, path in files:
            source = Path(path).read_text(encoding="utf-8").splitlines()
            for line in sorted(code_lines(path) - ran.get(Path(path).resolve(), set())):
                entries.append(f"{name}:{line}: {source[line - 1].strip()}")
        return entries


PACKAGE = Path(importlib.util.find_spec("moricensus").origin).parent
_tracer = LineTracer(PACKAGE)
_passed, _deselected, _unrun = set(), [], []
sys.settrace(_tracer.trace)


def pytest_collection_finish(session):
    sys.settrace(None)


def pytest_deselected(items):
    _deselected.extend(items)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if getattr(item.obj, "is_hypothesis_test", False):
        yield
        return
    sys.settrace(_tracer.trace)
    try:
        yield
    finally:
        sys.settrace(None)


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _passed.add(report.nodeid)


def pytest_sessionfinish(session):
    collected = {item.path for item in session.items}
    if (set(Path(__file__).parent.glob("test_*.py")) <= collected
            and not _deselected and len(_passed) == len(session.items)):
        _unrun.extend(_tracer.unrun(
            ("moricensus" if path.stem == "__init__" else f"moricensus.{path.stem}",
             path) for path in sorted(PACKAGE.glob("*.py"))))
    if _unrun:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _unrun:
        terminalreporter.section("lines no example test runs", red=True)
        for entry in _unrun:
            terminalreporter.write_line(entry)
