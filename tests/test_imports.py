"""`leavitt` is stdlib-only and carries no dead imports.

Each module under `src/leavitt/` is parsed with `ast`: an absolute import
must name a standard-library module, and every name an import binds must
be read somewhere in the module or be re-exported through `__all__`.
"""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "leavitt")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_absolute_imports_are_stdlib(name):
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names, "%s:%d imports %s" % (
                name, node.lineno, module)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = _parse(name)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                assert bound in read, "%s:%d imports %s, never used" % (
                    name, node.lineno, bound)
