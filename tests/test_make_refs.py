"""The benchmark's reference generator still binds to the package.

``perfbench/make_refs.py`` regenerates the benchmark references in about
five minutes, so this suite never runs it, and a renamed function, a dropped
parameter or a removed result field would only show at the next
regeneration.  These checks read the script without running it: every
``starkladder`` name it imports resolves, every call it makes to one of those
names binds to the signature, and every field it reads from a call's result
exists on the declared return type.  The monodromy also converges at the
script's tolerance at the committed crossings.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from starkladder.model import LatticeParams
from starkladder.spectra_exact import monodromy

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "make_refs.py"
REFERENCES = SCRIPT.with_name("references.json")


@pytest.fixture(scope="module")
def tree():
    return ast.parse(SCRIPT.read_text())


@pytest.fixture(scope="module")
def imported(tree):
    """Name -> object (None if missing) for each ``starkladder`` name imported."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "starkladder"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)
    return names


def calls_to(tree, names):
    """(function node, call node) for each call of an imported name."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in names):
                    yield func, node


def dict_keys(func, name):
    """Keys of the ``name = dict(...)`` or ``{...}`` literal assigned in ``func``."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            value = node.value
            if isinstance(value, ast.Dict):
                return [key.value for key in value.keys]
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"):
                return [kw.arg for kw in value.keywords]
    raise AssertionError(f"no dict literal for **{name} in {func.name}")


def test_imports_resolve(imported):
    assert imported
    assert [name for name, obj in imported.items() if obj is None] == []


def test_calls_bind(tree, imported):
    checked = 0
    for func, call in calls_to(tree, imported):
        keywords = []
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs from a dict literal in the same function
                keywords += dict_keys(func, kw.value.id)
            else:
                keywords.append(kw.arg)
        signature = inspect.signature(imported[call.func.id])
        try:
            signature.bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"line {call.lineno}: {call.func.id}: {exc}")
        checked += 1
    assert checked >= 10


def test_result_fields_exist(tree, imported):
    """Attributes read from a call's result, directly or through a local name."""
    checked = 0
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        results = {}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in imported):
                results[node.targets[0].id] = node.value.func.id
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id in imported):
                source = value.func.id
            elif isinstance(value, ast.Name) and value.id in results:
                source = results[value.id]
            else:
                continue
            target = imported[source]
            if inspect.isclass(target):
                continue  # a constructed object, not a result
            returned = typing.get_type_hints(target)["return"]
            fields = {f.name for f in dataclasses.fields(returned)}
            assert node.attr in fields or hasattr(returned, node.attr), \
                f"line {node.lineno}: {source}(...).{node.attr}"
            checked += 1
    assert checked >= 10


def module_constant(tree, name):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name} in {SCRIPT.name}")


@pytest.mark.parametrize("case", ["crossing_a", "crossing_b"])
def test_monodromy_converges_at_the_reference_tolerance(tree, case):
    # the generator's golden section evaluates the gap across the scan window
    ref = json.loads(REFERENCES.read_text())[case]
    argv = ref["argv"]

    def option(name):
        return argv[argv.index(f"--{name}") + 1]

    params = LatticeParams(float(option("j1")), float(option("j2")), float(option("delta")))
    lo, hi, _ = (float(x) for x in option("inv-f").split(":"))
    tight = module_constant(tree, "TIGHT")
    for z in [*np.linspace(lo, hi, 9), ref["inv_f_star"]]:
        monodromy(params.with_field(1.0 / z), tol=tight)
