"""The package runs on the standard library alone, on the Python it declares."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "komohe"


def test_every_absolute_import_is_stdlib():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_parses_at_the_declared_python_floor():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert declared, "pyproject.toml declares no requires-python floor"
    floor = (int(declared[1]), int(declared[2]))
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        # raises SyntaxError for syntax newer than the floor, such as `except*` below 3.11
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


# the modules from the bottom up, in the order of README's module table, with
# errors beneath it: a module imports only from layers below its own
LAYERS = [
    ["errors"],
    ["registry"],
    ["store"],
    ["dataset", "queries", "inference", "assessment", "skos"],
    ["service"],
    ["cli"],
]
LIBRARY = [module for layer in LAYERS[:4] for module in layer]


def test_each_module_imports_only_from_the_layers_below_its_own():
    level = {module: n for n, layer in enumerate(LAYERS) for module in layer}
    # the package root re-exports the library, and `python -m komohe` runs the CLI
    allowed = {"__init__": set(LIBRARY), "__main__": {"cli"}}
    allowed.update((module, {m for m in level if level[m] < level[module]}) for module in level)
    paths = sorted(PACKAGE.glob("*.py"))
    assert sorted(path.stem for path in paths) == sorted(allowed)
    wrong = []
    for path in paths:
        # ast.walk reaches an import inside a function too
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                wrong += [
                    f"{path.name}:{node.lineno}: imports {name}"
                    for name in names
                    if name.split(".")[0] not in allowed[path.stem]
                ]
    assert wrong == []
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = [line for line in readme.splitlines() if line.startswith("| `komohe.")]
    listed = re.findall(r"`komohe\.(\w+)`", "".join(row.split("|")[1] for row in table))
    assert listed == [module for layer in LAYERS for module in layer]


FRONT_ENDS = ["komohe.service", "komohe.cli", "http.server"]
# imports each module named on its command line, then komohe.cli, and prints
# which of FRONT_ENDS were loaded after each of the two steps
IMPORT_PROBE = f"""
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
library = [name for name in {FRONT_ENDS!r} if name in sys.modules]
import komohe.cli
print(json.dumps([library, [name for name in {FRONT_ENDS!r} if name in sys.modules]]))
"""


def test_the_library_loads_without_the_http_layer():
    # a fresh interpreter, since this one has long imported the service
    modules = ["komohe", *(f"komohe.{module}" for module in LIBRARY)]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *modules],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], FRONT_ENDS]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")  # dunders are protocol, not private


def test_no_module_reaches_into_another_modules_private_names():
    # an underscore name is private to its module, an underscore attribute to
    # its own class: a seam between modules goes through public names only
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    reaches = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("komohe")):
                reaches += [
                    f"{path.name}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if is_private(alias.name)
                ]
            elif (
                isinstance(node, ast.Attribute)
                and is_private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                reaches.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert reaches == []


def test_every_module_level_private_name_is_read_by_its_own_module():
    # a private name serves its module alone: one its module never reads is dead
    # code, or a table kept only for the tests that pin it
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(target.id, node) for target in targets if isinstance(target, ast.Name)]
        reads = [
            (name.id, name.lineno)
            for name in ast.walk(tree)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        ]
        unread += [
            f"{path.name}:{node.lineno}: {name}"
            for name, node in defined
            if is_private(name)
            and not any(
                read == name and not node.lineno <= line <= node.end_lineno for read, line in reads
            )
        ]
    assert unread == []


def test_no_row_written_reads_an_enum_descriptor(tmp_path, monkeypatch, capsys):
    # an enum's `.value` and `.name` go through a descriptor about 15 times slower
    # than a plain attribute read, so rows are written from each member's own
    # `symbol`, `text` and `rank`
    from enum import Enum

    from komohe import cli
    from komohe.service import Dataset, KomoheRequestHandler
    from komohe.store import RelationType, RelevanceRating

    from conftest import SIXROW_TSV

    tsv = tmp_path / "in.tsv"
    tsv.write_text(SIXROW_TSV + "B\thacking\t=\tC\tpiracy\tlow\n", encoding="utf-8")
    data = tmp_path / "data"
    descriptor = type(vars(Enum)["value"])  # enum.property; DynamicClassAttribute before 3.11
    get, reads = descriptor.__get__, []

    def counting(self, instance, ownerclass=None):
        if isinstance(instance, (RelationType, RelevanceRating)):
            reads.append((type(instance).__name__, self.fget and self.fget.__name__))
        return get(self, instance, ownerclass)

    monkeypatch.setattr(descriptor, "__get__", counting)
    assert RelationType.EQ.value == "=" and reads == [("RelationType", "value")]  # it counts
    reads.clear()
    for argv in (
        ["import", str(tsv)],  # a TSV load and, in the save, an export
        ["export"],
        ["stats"],
        ["lookup", "Hacker", "--min-rating", "low"],
        ["expand", "hacker OR isdn", "--relations", "=,^,<"],
        ["translate", "hacker", "--to", "en"],
        ["infer", "--from", "A", "--to", "C", "--via", "B"],  # export_inferred_tsv
    ):
        assert cli.run(["--data", str(data), *argv]) == 0, argv
    handler = KomoheRequestHandler.__new__(KomoheRequestHandler)
    handler.dataset = Dataset.load([data])
    for segments, params in (
        (["terms", "A", "Hacker", "mappings"], {"min_rating": ["low"]}),
        (["expand"], {"q": ["hacker OR isdn"], "relations": ["=,^,<"]}),
        (["translate"], {"term": ["hacker"], "to_lang": ["en"]}),
    ):
        assert handler.route(segments, params)[1] == 200, segments
    out, err = capsys.readouterr()
    assert "A\thacker\t=\tC\tpiracy\tlow\t# via:B" in out
    assert "(A->B, ^, medium)" in err
    assert reads == []


# public names that no komohe module calls, each kept on purpose
UNCALLED_BY_DESIGN = {
    "single": "normalizing Concept constructor for outside text, behind the public add_mapping",
    "combination": "normalizing Concept constructor for a 1:n target built from outside text",
    "concept_uri": "the concept URI form README documents; parse_concept_uri is its inverse",
    "do_GET": "called by http.server for each GET request",
    "log_message": "called by http.server for each line it would log",
}


def test_every_public_name_is_used_or_exported():
    # a public function, method or class must be referenced by name in some
    # module outside its own def, or be exported in __all__: one way to do each job
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    defs, refs, exported = [], [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs.append((path.name, node))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path.name, node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported |= {element.value for element in node.value.elts}
    assert exported

    def used(module: str, node: ast.AST) -> bool:
        return any(
            name == node.name and not (path == module and node.lineno <= line <= node.end_lineno)
            for path, line, name in refs
        )

    unused = [
        f"{module}:{node.lineno}: {node.name}"
        for module, node in defs
        if node.name not in exported and node.name not in UNCALLED_BY_DESIGN and not used(module, node)
    ]
    assert unused == []


# records built once per stored row or term, or once per result a call returns;
# the query records are also what the expansion cache holds
PER_ROW_RECORDS = [
    "Concept", "Mapping", "Term", "InferredMapping", "VariantConflict",
    "Leaf", "And", "Or", "Not", "AddedTerm", "LeafExpansion",
]


def test_records_built_per_row_or_result_define_slots():
    # a slotted record carries no per-instance __dict__; every class in its MRO
    # below object must define __slots__, or instances get a __dict__ anyway
    import komohe
    from komohe import queries

    for name in PER_ROW_RECORDS:
        record = getattr(komohe, name, None) or getattr(queries, name)  # trace records are not re-exported
        unslotted = [k.__name__ for k in record.__mro__[:-1] if "__slots__" not in vars(k)]
        assert unslotted == [], name


def test_the_benchmark_tracer_wraps_komohe_and_restores_it():
    # loaded by path: as a top-level `trace` it would shadow the stdlib module
    path = PACKAGE.parents[1] / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import komohe
    from komohe import cli
    from komohe.service import KomoheRequestHandler

    normalize_term, route = komohe.registry.normalize_term, KomoheRequestHandler.__dict__["route"]
    with tracing.Tracer() as tracer:
        assert komohe.registry.normalize_term is not normalize_term
        assert komohe.normalize_term is komohe.registry.normalize_term  # re-exports too
        komohe.registry.normalize_term("X")
    assert tracer.calls["registry.normalize_term"] == 1
    assert komohe.registry.normalize_term is normalize_term
    assert komohe.normalize_term is normalize_term
    assert KomoheRequestHandler.__dict__["route"] is route
    assert cli.save_dataset is komohe.dataset.save_dataset
