"""Which lines of a module's code a run reaches, through ``sys.settrace``.

``unrun_lines(modules, run)`` traces ``run()`` and lists the lines of the
modules' functions and class methods that hold an instruction but never
ran.  A guard test asserts that the list is empty, so a branch that no
input of the guard takes fails it.  Module and class bodies run at
import and are not counted.
"""

import inspect
import sys
import types
from pathlib import Path


def _codes(module):
    """Code objects of a module's functions and of its classes' methods."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value.__code__
        elif inspect.isclass(value):
            for member in vars(value).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member.__code__


def code_lines(module) -> set[int]:
    """Lines of ``module``'s functions and methods that hold an instruction.

    Nested code (comprehensions, inner functions) counts too; code
    generated at run time, such as ``Record``'s ``__init__``s, has
    another file name and does not.
    """
    filename = module.__file__
    stack = list(_codes(module))
    lines = set()
    while stack:
        code = stack.pop()
        if code.co_filename != filename:
            continue
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_lines(modules, run) -> list[str]:
    """``"module:line: source"`` for each line of ``modules`` ``run()`` skips."""
    files = {module.__file__: set() for module in modules}

    def trace(frame, event, arg):
        ran = files.get(frame.f_code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    unrun = []
    for module in modules:
        source = Path(module.__file__).read_text().splitlines()
        for line in sorted(code_lines(module) - files[module.__file__]):
            unrun.append(f"{module.__name__}:{line}: {source[line - 1].strip()}")
    return unrun
