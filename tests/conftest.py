import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def perfbench():
    """Loader of a ``perfbench/`` module by name that writes no bytecode there."""
    def load(name):
        spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        saved = sys.dont_write_bytecode
        sys.dont_write_bytecode = True  # leave perfbench/ as it is
        sys.modules[spec.name] = module  # its dataclasses look their module up
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = saved
            del sys.modules[spec.name]
        return module

    return load
