import ast
import pathlib

import mveff

SOURCES = sorted(pathlib.Path(mveff.__file__).parent.glob("*.py"))


def test_sources_have_no_bare_assert():
    # python -O strips assert statements, and the soundness checks must
    # still run there: they raise errors instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_tables_builds_assessments():
    # the assessment encoding lives in tables.py: every other module reads
    # its tuples and place values from there, so np.indices is called there
    # alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "indices"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]
    assert found and all(place.startswith("tables.py:") for place in found), found
