"""The benchmark's per-layer tracer still finds what it times and counts.

``perfbench/tracer.py`` patches the functions named in its ``LAYERS`` table
and derives work counts (site-time, rows, steps) from each call's bound
arguments and return value.  It skips a function it cannot find and swallows
a hook that fails, so a rename or a signature change would silently read as
zero work.  These checks load the tracer's table without running it.
"""

import ast
import dataclasses
import importlib
import inspect
import typing

import pytest

# removed with the hand-rolled Jacobi solver and with the chain eigenbasis
# route of the resonance scan; the benchmark keeps their columns
GONE = {"continuum.hermitian_eigen_small", "dynamics.eigh_tridiagonal"}


@pytest.fixture(scope="module")
def tracer(perfbench):
    return perfbench("tracer")


def resolve(tracer, module, path):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def names_read(hook):
    """String keys of ``args[...]`` and attributes of ``result`` the hook reads."""
    tree = ast.parse(inspect.getsource(hook))
    keys, attrs = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "result"):
            attrs.add(node.args[1].value)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "result"):
            attrs.add(node.attr)
    return keys, attrs


def test_every_layer_resolves(tracer):
    missing = {name for name, (module, path, _) in tracer.LAYERS.items()
               if resolve(tracer, module, path) is None}
    assert missing <= GONE


def test_hooked_functions_bind_what_their_hooks_read(tracer):
    hooked = {name: (module, path, hook) for name, (module, path, hook)
              in tracer.LAYERS.items() if hook is not None and name not in GONE}
    assert hooked
    for name, (module, path, hook) in hooked.items():
        func = resolve(tracer, module, path)
        params = inspect.signature(func).parameters
        keys, attrs = names_read(hook)
        assert keys <= set(params), name
        if attrs:
            returned = typing.get_type_hints(func)["return"]
            fields = {f.name for f in dataclasses.fields(returned)}
            assert all(a in fields or hasattr(returned, a) for a in attrs), name
