"""Every function in the package is reached by a run or declared.

A ``sys.setprofile`` trace records the code that loading, running and
emitting the four shipped fixtures enters (JSON for every fixture, and
SVG for n = 2).  A function or method defined in ``src/hypdecomp`` that
the trace never enters has to be public API, named in
``hypdecomp.__all__`` (a method of an exported class counts as
declared), or listed in ``ALLOWED`` with the one user outside the
pipeline that keeps it.  Anything else is dead code: delete it, or move
it to the tool or test that uses it.
"""

import importlib
import inspect
import pathlib
import pkgutil
import sys

import pytest

import hypdecomp
from hypdecomp.fixtures import NAMES, fixture_path
from hypdecomp.io_cli import emit, load_spec, run

PACKAGE = pathlib.Path(hypdecomp.__file__).resolve().parent

# unreached, undeclared functions, each with its one user outside a run
ALLOWED = {
    "hypdecomp.io_cli.main": "the command line, python -m hypdecomp",
    "hypdecomp.group.WordBall.__len__": "bench/tracing.py",
    "hypdecomp.minkowski.hyperboloid_to_ball": "model_convert",
    "hypdecomp.minkowski.ball_to_hyperboloid": "model_convert",
    "hypdecomp.minkowski._halfspace_involution": "model_convert",
}


def _modules():
    yield hypdecomp
    for info in pkgutil.walk_packages(hypdecomp.__path__, "hypdecomp."):
        if not info.name.endswith("__main__"):     # it runs the CLI
            yield importlib.import_module(info.name)


def _methods(cls):
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        # dataclass-generated methods have no source in the package
        if (inspect.isfunction(value) and pathlib.Path(
                value.__code__.co_filename).resolve().is_relative_to(PACKAGE)):
            yield value


def package_functions():
    """{qualified name: function} of every function and method defined
    in the package, one entry per code object."""
    out = {}
    for module in _modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found = [obj]
            elif inspect.isclass(obj):
                found = list(_methods(obj))
            else:
                continue
            for fn in found:
                out.setdefault(fn.__code__,
                               f"{module.__name__}.{fn.__qualname__}")
    return {name: code for code, name in out.items()}


def declared_code():
    """Code objects of the functions and methods that ``__all__`` exports."""
    out = set()
    for name in hypdecomp.__all__:
        obj = getattr(hypdecomp, name)
        if inspect.isfunction(obj):
            out.add(obj.__code__)
        elif inspect.isclass(obj):
            out.update(fn.__code__ for fn in _methods(obj))
    return out


@pytest.fixture(scope="module")
def entered():
    """Code objects that the pipeline enters on the shipped fixtures."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in NAMES:
            spec = load_spec(fixture_path(name))
            report = run(spec)
            emit(report, "json")
            if spec.group.dimension == 2:
                emit(report, "svg")
    finally:
        sys.setprofile(previous)
    return codes


def test_every_function_is_reached_declared_or_allowed(entered):
    declared = declared_code()
    dead = sorted(name for name, code in package_functions().items()
                  if code not in entered and code not in declared
                  and name not in ALLOWED)
    assert dead == [], (
        "functions that no run enters and __all__ does not declare: "
        f"{dead}")


def test_allowlist_is_current(entered):
    functions = package_functions()
    assert sorted(set(ALLOWED) - set(functions)) == []
    assert sorted(name for name in ALLOWED
                  if functions[name] in entered) == []


def test_all_names_resolve():
    assert len(set(hypdecomp.__all__)) == len(hypdecomp.__all__)
    assert [n for n in hypdecomp.__all__ if not hasattr(hypdecomp, n)] == []
