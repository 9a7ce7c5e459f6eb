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


def test_one_function_decides_the_skeleton_route():
    # whether a table holds its generators is decided once, when it is
    # built: homogeneity is tested (_check_homogeneous, by name) and the
    # minimal sets are taken from a skeleton (_minimal_sets) only where a
    # table is built from cells, EffFn.__init__.  A table holds its
    # generators or its cells, no skeleton, and no module but tables.py
    # reads its generators; decide.py and filtration.py build their tables
    # from generators
    # (_generated), and no module imports a constructor that takes a
    # skeleton (the stacked lift _lifted is gone).  games.py builds a game
    # form's generators from the profile cube and no assessment geometry
    calls, reads, geometries, imports = {}, [], [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> the innermost function around it (walks are breadth first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_gens":
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "tables":
                imports.setdefault(path.name, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("_check_homogeneous", "_minimal_sets"):
                    calls.setdefault(name, set()).add(f"{path.name}:{owner.get(node, '<module>')}")
                elif name == "_geometry":
                    geometries.append(f"{path.name}:{node.lineno}")
    assert calls == {
        "_check_homogeneous": {"tables.py:__init__"},
        "_minimal_sets": {"tables.py:__init__"},
    }, calls
    assert reads and all(place.startswith("tables.py:") for place in reads), reads
    assert not [name for name in mveff.tables.EffFn.__slots__ if "skeleton" in name]
    assert all("_generated" in imports[name] for name in ("decide.py", "filtration.py")), imports
    assert not any("_lifted" in names for names in imports.values()), imports
    assert geometries and not [place for place in geometries if place.startswith("games.py:")], geometries


def test_playability_is_decided_on_generators_or_cells():
    # tables._decide decides a table on its generators, else on its cells:
    # it builds no Boolean skeleton, from generators or from cells, and the
    # one builder of a skeleton from generators is EffFn._cells, which
    # lifts it to the table's cells
    path = next(path for path in SOURCES if path.name == "tables.py")
    calls = {}  # called name -> the qualified names of the functions calling it

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                calls.setdefault(name, set()).add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), ())
    assert calls["_upset_skeleton"] == {"EffFn._cells"}, calls["_upset_skeleton"]
    assert "_decide" not in calls["_skeleton_cells"], calls["_skeleton_cells"]
    assert "_decide" in calls["_generators_hold"] and "_decide" in calls["_battery"]


def test_sources_use_every_name_they_import():
    # an import nothing reads is a leftover: every name a module imports is
    # read in its code or, for the package, exported by __all__
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_filtration_reads_cells_only_for_the_intermediate_tables():
    # the playable and enriched filtrations read Boolean skeletons alone:
    # in filtration.py only _intermediate_tables, which builds the dense
    # E* tables, calls .rows()
    path = next(path for path in SOURCES if path.name == "filtration.py")
    tree = ast.parse(path.read_text(), str(path))
    owner = {}  # node -> the innermost function around it (walks are breadth first)
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    calls = [
        owner.get(node, "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "rows"
    ]
    assert calls and set(calls) == {"_intermediate_tables"}, calls


def test_model_path_builds_no_skeleton():
    # models.py and filtration.py read tables held as their generators on
    # the generators themselves (tables._generator_rows, _row_values): no
    # name there reaches the functions that build a skeleton from
    # generators or the cuts of a lift's cells
    builders = {"_upset_skeleton", "_lift_cuts", "lift_cuts"}
    paths = [path for path in SOURCES if path.name in ("models.py", "filtration.py")]
    assert len(paths) == 2
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in builders
    ]
    assert found == []
