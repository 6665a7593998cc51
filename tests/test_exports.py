"""The package's export list matches what ``alphaeta/__init__.py`` binds, so
a rename or deletion cannot leave a stale or missing export."""
import ast
import inspect
from pathlib import Path

import alphaeta


def test_every_export_resolves():
    for name in alphaeta.__all__:
        assert hasattr(alphaeta, name), name


def test_no_duplicate_exports():
    assert len(alphaeta.__all__) == len(set(alphaeta.__all__))


def test_bound_names_are_exactly_the_exports():
    tree = ast.parse(Path(alphaeta.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound - {"__all__"}
              if not inspect.ismodule(getattr(alphaeta, name))}
    assert public == set(alphaeta.__all__)
