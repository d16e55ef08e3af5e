"""Source-level rules for the package."""

import ast
import inspect
from pathlib import Path

import perturba

SOURCES = sorted(Path(perturba.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_exports_match_the_namespace():
    # every exported name resolves, and every public name bound in the
    # package (submodules aside) is exported
    exported = set(perturba.__all__)
    assert len(exported) == len(perturba.__all__)
    assert [name for name in perturba.__all__ if not hasattr(perturba, name)] == []
    public = {
        name
        for name, value in vars(perturba).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exported - {"__version__"}


def test_only_hermitian_raises_non_hermitian_input():
    # one Hermiticity gate: every other module relies on what it returns
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None))

    raisers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and raised_name(node) == "NonHermitianInput"
    }
    assert raisers == {"hermitian.py"}


def test_require_hermitian_runs_only_at_the_two_gates():
    # construction and the eigensolver validate; per-call paths trust them
    def references(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from references(child, child.name)
                continue
            name = getattr(child, "id", getattr(child, "attr", None))
            if isinstance(child, (ast.Name, ast.Attribute)) and name == "require_hermitian":
                yield owner
            yield from references(child, owner)

    users = {
        (path.stem, owner)
        for path in SOURCES
        for owner in references(ast.parse(path.read_text(), filename=str(path)), None)
    }
    assert users == {("perturb", "_validate"), ("hermitian", "eigendecompose")}


def test_only_the_lazy_grid_computes_grids():
    # sweep._Grid repeats numpy's linspace/geomspace steps a slice at a time;
    # a second caller of either would be a second grid formula to keep equal
    def called_name(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None))

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and called_name(node) in {"linspace", "geomspace"}
    ]
    assert SOURCES and not found, found


def test_only_the_lazy_grid_bisects():
    # _unsafe_rows is the one lookup of the safe run: it bisects the lazy
    # grid, whose inner rows read in Python floats; a bisection anywhere else
    # would be a second lookup, or one over a materialised grid
    def bisections(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from bisections(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            name = getattr(child, "id", getattr(child, "attr", None))
            if isinstance(child, (ast.Name, ast.Attribute)) and name in {"bisect_left",
                                                                         "bisect_right"}:
                yield name, owner
            yield from bisections(child, owner)

    found = {
        (path.stem, *use)
        for path in SOURCES
        for use in bisections(ast.parse(path.read_text(), filename=str(path)), None)
    }
    assert found == {("sweep", "bisect_left", "_unsafe_rows"),
                     ("sweep", "bisect_right", "_unsafe_rows")}


def callers(name):
    """(module, qualified owner) of every call of ``name`` in the package."""

    def calls(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                yield owner
            yield from calls(child, owner)

    return [
        (path.stem, owner)
        for path in SOURCES
        for owner in calls(ast.parse(path.read_text(), filename=str(path)), None)
    ]


def test_only_the_sweep_table_builds_a_grid():
    # a table holds its spec's one grid; no other caller builds a second
    assert callers("_Grid") == [("sweep", "SweepTable.__init__")]


def test_only_the_sweep_table_reads_the_sweep_rates():
    # one float64 rule for the curves' gaps: hyperfine._checked_gaps evaluates
    # them as the curves do, and refuses; the table keeps that evaluation
    # for the certificate and the aliasing phase. Every
    # public reader of the gaps refuses through it, no finiteness check
    # follows, and neither sweep nor the certificate evaluates a gap of its own
    assert callers("_checked_gaps") == [
        ("hyperfine", "exact_eigensystem_closed_form"),
        ("hyperfine", "improved_energies_closed_form"),
        ("hyperfine", "angular_rates"),
        ("hyperfine", "normalized_probabilities"),
        ("sweep", "SweepTable.__init__"),
    ]
    assert callers("_gaps") == [("hyperfine", "_checked_gaps"),
                                ("hyperfine", "_normalized_triple")]
    assert [owner for module, owner in callers("isfinite") if module == "hyperfine"] == [
        "_checked_gaps", "_checked_gaps"
    ]
    assert [owner for module, owner in callers("angular_rates") if module == "sweep"] == []


def test_errstate_stands_only_on_array_work_that_can_overflow():
    # Python floats never warn, so scalar work needs no np.errstate; it
    # decorates exactly the functions whose numpy array arithmetic can
    # overflow, and stands nowhere else
    decorated = [
        (path.stem, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(getattr(getattr(decorator, "func", None), "attr", None) == "errstate"
                for decorator in node.decorator_list)
    ]
    assert sorted(decorated) == sorted(callers("errstate")) == [
        ("hermitian", "_asymmetry"),
        ("hyperfine", "_checked_gaps"),
        ("hyperfine", "build_problem"),
        ("perturb", "_g_sums"),
        ("perturb", "_store"),
    ]


def test_private_imports_cross_only_where_listed():
    # a private name imported from a sibling module is a rule its owner has
    # not stated publicly; these are the only such edges, kept on purpose
    edges = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = {alias.name for alias in node.names if alias.name.startswith("_")}
                if private:
                    edges.setdefault((path.stem, node.module), set()).update(private)
    assert edges == {
        ("cli", "sweep"): {"_MODES", "_SCALES"},
        # the counting tests and perfbench patch sweep._normalized_triple;
        # the table refuses by _checked_gaps, hyperfine's one float64 rule
        ("sweep", "hyperfine"): {"_checked_gaps", "_deviation_envelope", "_normalized_triple",
                                 "_safe_time"},
    }


def test_only_the_sweep_table_reads_the_derived_constants():
    # SweepTable.__init__ reads W, mu_e and hbar once and keeps them; the
    # curves and the divergence query read the table, so no second reader
    # in sweep can derive a value the table's refusal did not check
    derived = {"w_ev", "mu_e_ev_per_tesla", "hbar_evs"}

    def reads(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from reads(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in derived:
                yield child.attr, owner
            yield from reads(child, owner)

    path = Path(perturba.__file__).parent / "sweep.py"
    found = set(reads(ast.parse(path.read_text(), filename=str(path)), None))
    assert found == {(name, "SweepTable.__init__") for name in derived}


def test_only_emit_csv_builds_the_six_column_block():
    # SweepTable.rows stacks the CSV's six columns; the divergence query
    # walks each curve alone, reads only that curve's deviation through
    # SweepTable.deviation, and builds no such block
    assert callers("rows") == [("sweep", "emit_csv.blocks")]
    assert callers("deviation") == [("sweep", "_first_crossing")]


def test_only_the_per_curve_walk_looks_up_unsafe_rows():
    # each curve's walk looks up the rows its own certificate leaves open;
    # no other code chooses which rows a divergence query evaluates
    assert callers("_unsafe_rows") == [("sweep", "_first_crossing")]


def test_every_import_is_used():
    # a name an import binds is read somewhere in its module, or re-exported
    # through __all__; a deletion that leaves its import behind fails here
    def bound(node):
        for alias in node.names:
            yield alias.asname or alias.name.partition(".")[0]

    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += [
            f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in bound(node)
            if name not in used
        ]
    assert SOURCES and not unused, unused


def test_the_one_thread_closes_the_replaced_csv():
    # threads stay out of compute; the package's one thread is I/O: a daemon
    # that closes the file a CSV rename replaced, so its blocks are freed
    # while the caller goes on
    assert callers("Thread") == [("sweep", "_write_atomically")]
    path = Path(perturba.__file__).parent / "sweep.py"
    (thread,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "Thread"
    ]
    keywords = {keyword.arg: ast.unparse(keyword.value) for keyword in thread.keywords}
    assert keywords == {"target": "os.close", "args": "(replaced,)", "daemon": "True"}


def sweep_function(qualified):
    """The ast of ``qualified`` (``name`` or ``Class.name``) in sweep.py."""
    path = Path(perturba.__file__).parent / "sweep.py"
    node = ast.parse(path.read_text(), filename=str(path))
    for name in qualified.split("."):
        (node,) = [child for child in node.body if getattr(child, "name", None) == name]
    return node


def test_the_sweep_table_keeps_one_gap_record():
    # the table keeps its checked gaps and no value derived from them: the
    # aliasing phase reads both modes from those gaps, and the certificate too
    bound = {
        target.attr
        for node in ast.walk(sweep_function("SweepTable.__init__"))
        if isinstance(node, ast.Assign)
        for side in node.targets
        for target in (side.elts if isinstance(side, ast.Tuple) else [side])
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
    }
    assert bound == {"spec", "constants", "x", "_gaps", "_w", "_mu", "_hbar", "_held_x"}


def test_the_csv_writer_classifies_the_path_it_was_given():
    # os.stat follows /dev/stdout to the pipe or terminal it opens; the
    # realpath of a pipe names nothing, so it only places a temporary file
    calls = [
        (node.lineno, node.func.attr, [ast.unparse(arg) for arg in node.args])
        for node in ast.walk(sweep_function("_write_atomically"))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"stat", "realpath"}
    ]
    assert [(name, args) for _, name, args in sorted(calls)] == [("stat", ["path"]),
                                                                 ("realpath", ["path"])]
