"""`leavitt` is stdlib-only and carries no dead imports or exports.

Each module under `src/leavitt/` is parsed with `ast`: an absolute import
must name a standard-library module, every name an import binds must be
read somewhere in the module or be re-exported through `__all__`, and
every name in `__all__` must have a caller outside the tests.
"""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "leavitt")
BENCH = os.path.join(ROOT, "perfbench")
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



def _names_read(tree):
    """Identifiers and attribute names a module reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def _perfbench_words():
    """Names the benchmark reads, and the strings it names functions by."""
    words = set()
    for f in os.listdir(BENCH):
        if f.endswith(".py"):
            with open(os.path.join(BENCH, f)) as fh:
                tree = ast.parse(fh.read(), f)
            words |= _names_read(tree) | {
                n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return words


def _readme_names():
    """Identifiers inside the README's code spans."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        spans = re.findall(r"`([^`\n]+)`", fh.read())
    return {w for span in spans for w in re.findall(r"\w+", span)}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller(name):
    """A name in `__all__` is read somewhere in `src/` (its own `def` and
    `__all__` entry do not count), used by `perfbench/`, or named in the
    README; library code that only tests call does not stay."""
    used = set().union(*(_names_read(_parse(m)) for m in MODULES))
    used |= _perfbench_words() | _readme_names()
    unused = sorted(_exported(_parse(name)) - used)
    assert not unused, "%s exports %s, which nothing outside the tests uses" % (
        name, ", ".join(unused))
