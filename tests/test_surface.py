"""Guard against unreached library code and a second API list.

Every top-level public function or class of `src/polaris`, and every
public method or property of a package class, must be named somewhere
in the package outside its own definition.  A name that only tests, the
benchmark or an outside caller reach must be on the allowlist below
with its reason.  Callers import the modules themselves
(`from polaris import verify`), so the package root holds its docstring
and nothing else: a list of re-exports there would restate each module's
names and go stale with every deletion.  Likewise every table that a
space or an embedding keeps, and every field of a dataclass or
NamedTuple, must be read somewhere in the package.
"""

import ast
import dataclasses
from functools import cached_property
from pathlib import Path

import polaris
from polaris.embed import Embedding
from polaris.polar import PolarSpace

PACKAGE = Path(polaris.__file__).resolve().parent

ALLOWED = {
    "embed.preimage": "a benchmark tracer span",
    "embed.projective_span": "a benchmark tracer span",
    "verify.CheckReport.consistent": "the benchmark's correctness gate and the tests",
}


def _names(node, modules) -> set:
    """Names that `node` reads: bare names and `module.name` attributes
    of package modules in load context, and names imported from a
    module.  A name that is only bound, such as a dataclass field that
    shares a function's name, is no reference to it."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) \
                and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreached_names() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    modules = set(trees)
    # names each top-level statement refers to, by module
    refs = {stem: [(stmt, _names(stmt, modules)) for stmt in tree.body]
            for stem, tree in trees.items()}
    # a method or property is read as an attribute, outside its own body
    reads = set().union(*map(_attribute_reads, trees.values()))
    out = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any(node.name in names
                       for other in modules
                       for stmt, names in refs[other] if stmt is not node):
                out.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{stem}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_") and item.name not in reads]
    return sorted(out)


def test_every_public_name_is_reached_or_allowed():
    assert unreached_names() == sorted(ALLOWED)


def _attribute_reads(node, inside=None) -> set:
    """Attribute names read in load context under `node`, less those read
    inside a function of the same name: a cached property that reads its
    own cache is no reader of it."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load) \
                and child.attr != inside:
            out.add(child.attr)
        name = child.name if isinstance(child, ast.FunctionDef) else inside
        out |= _attribute_reads(child, name)
    return out


def test_every_space_slot_and_embedding_field_is_read():
    # a per-space or per-embedding table that no algorithm reads is
    # dead weight built for every space
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads |= _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    cached = [name for name, value in vars(Embedding).items()
              if isinstance(value, cached_property)]
    kept = list(PolarSpace.__slots__) + [f.name for f in dataclasses.fields(Embedding)]
    assert [name for name in kept + cached if name not in reads] == []


def _is_record(node) -> bool:
    """A class statement decorated `@dataclass` or based on NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(m, ast.Name) and m.id == "dataclass" for m in marks) \
        or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def unread_fields() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    # attribute reads of each top-level statement of the package
    reads = [(stmt, _attribute_reads(stmt))
             for tree in trees.values() for stmt in tree.body]
    out = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or not _is_record(node):
                continue
            outside = set().union(*(names for stmt, names in reads if stmt is not node))
            out += [f"{stem}.{node.name}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id not in outside]
    return sorted(out)


def test_every_result_field_is_read():
    # a field of a dataclass or NamedTuple that the package never reads
    # outside the class is a table built for no caller
    assert unread_fields() == []


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements, so a check the package relies
    # on must raise instead; properties of the package's own tables are
    # the tests' to check
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None


CORE = ("errors", "field", "linalg", "forms", "polar", "embed", "verify", "records")
FRONT = {"catalog", "specfile", "cli"}


def test_core_modules_do_not_import_the_front_end():
    # presets, spec files and the command line sit on top of the core:
    # a check takes its space and embedding as given, whatever built them
    for stem in CORE:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                # `from .x import y` and `from polaris.x import y` name x;
                # `from . import x` and `from polaris import x` name x too
                mod = (node.module or "").removeprefix("polaris").lstrip(".")
                imported |= {mod} if mod else {alias.name for alias in node.names}
        assert not imported & FRONT, (stem, sorted(imported & FRONT))
