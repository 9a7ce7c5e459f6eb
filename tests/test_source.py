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
