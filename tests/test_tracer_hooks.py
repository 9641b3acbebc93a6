"""The benchmark's tracer wraps `leavitt` functions and methods by name
(`perfbench/tracer.py`).  A refactor that renames or moves one would make
`perfbench/run.py --trace 1` fail, so every name it lists must resolve."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_list(name):
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("%s not found in %s" % (name, TRACER))


@pytest.mark.parametrize("mod, fname", _tracer_list("SPANNED"))
def test_spanned_function_exists(mod, fname):
    assert callable(getattr(importlib.import_module("leavitt." + mod), fname, None))


@pytest.mark.parametrize("mod, cls, meth, timed", _tracer_list("COUNTED"))
def test_counted_method_is_defined_on_its_class(mod, cls, meth, timed):
    klass = getattr(importlib.import_module("leavitt." + mod), cls)
    assert callable(klass.__dict__.get(meth))
