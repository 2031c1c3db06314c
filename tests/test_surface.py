"""Every public definition in `src/abtool` has a reader in the program.

The scan walks the AST of each `src/abtool/*.py` module and collects its
public module-level functions and classes and the public and dunder methods
and properties of those classes.  Readers are the `ast.Name`,
`ast.Attribute` and import-alias nodes in `src` (outside `__init__.py`,
whose re-exports are not uses), in `demos` and in `benchmark` (outside
`benchmark/tests`), each outside the definition's own body.  Strings and
comments are not readers.  Tests are not readers either: a definition that
only tests call is dead library surface, and a second route that tests check
a program path against lives in `tests/oracles.py`.

A method is resolved through its owner class.  Only attribute reads name
it.  Where the receiver is known (`self` or `cls` inside a class, a class
named directly, or a call of one), the read counts for the methods of that
class, its package bases and its package subclasses only; a read through a
receiver of unknown type (`psi.amplitude`) counts for every class that
defines the name, since any of them may be passed there.  The construction
hooks `__init__`, `__new__` and `__post_init__` are read wherever their class
or a subclass is; any other dunder (`__call__`, `__getitem__`, ...) must be
named by a reader, because the syntax that invokes it cannot be traced to a
class.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "abtool"
CONSTRUCTION_HOOKS = {"__init__", "__new__", "__post_init__"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, node, owner class name or None) of each public def
    and class, and of each public or dunder method and property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            not item.name.startswith("_") or _is_dunder(item.name)):
                        yield f"{module}.{node.name}.{item.name}", item, node.name


def _base_name(expr):
    return expr.id if isinstance(expr, ast.Name) else \
        expr.attr if isinstance(expr, ast.Attribute) else None


class _Reads(ast.NodeVisitor):
    """Every read in one module as (name, kind, owner, enclosing definition
    nodes): kind "name" for an ast.Name or import alias, "attr" for an
    ast.Attribute; owner is the package class an attribute's receiver
    resolves to, else None."""

    def __init__(self, classes):
        self.classes = classes
        self.reads = []
        self.enclosing = []
        self.class_stack = []

    def _read(self, name, kind, owner=None):
        self.reads.append((name, kind, owner, tuple(self.enclosing)))

    def _scoped(self, node):
        self.enclosing.append(id(node))
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_ClassDef(self, node):
        self.class_stack.append(node.name)
        self._scoped(node)
        self.class_stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Name(self, node):
        self._read(node.id, "name")

    def visit_alias(self, node):
        self._read(node.name.rsplit(".", 1)[-1], "name")
        if node.asname:
            self._read(node.asname, "name")

    def visit_Attribute(self, node):
        self._read(node.attr, "attr", self._owner(node.value))
        self.generic_visit(node)

    def _owner(self, receiver):
        if isinstance(receiver, ast.Call):
            receiver = receiver.func
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            return self.class_stack[-1] if self.class_stack else None
        name = _base_name(receiver)
        return name if name in self.classes else None


def _hierarchy(trees):
    """(family, lineage) of each class name: family holds the class, its
    package bases and its package subclasses; lineage the class and its
    package subclasses."""
    bases = {node.name: {_base_name(b) for b in node.bases}
             for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        found = set()
        for base in bases.get(name, ()) & bases.keys():
            found |= {base} | ancestors(base)
        return found

    up = {name: ancestors(name) for name in bases}
    lineage = {name: {name} | {sub for sub in bases if name in up[sub]}
               for name in bases}
    return {name: lineage[name] | up[name] for name in bases}, lineage


def unread_definitions(modules, program_trees):
    """Qualified names of the public definitions no program code reads.

    modules maps a module name to the AST scanned for definitions; every
    tree in modules and in program_trees is a reader."""
    trees = [*modules.values(), *program_trees]
    family, lineage = _hierarchy(trees)
    definitions = [d for module, tree in modules.items()
                   for d in _definitions(module, tree)]
    reads = []
    for tree in trees:
        visitor = _Reads(family)
        visitor.visit(tree)
        reads += visitor.reads

    def is_read(node, owner):
        outside = [(kind, by) for name, kind, by, inside in reads
                   if name == node.name and id(node) not in inside]
        if owner is None:                    # module-level function or class
            return any(kind == "name" or by is None for kind, by in outside)
        return any(kind == "attr" and (by is None or by in family[owner])
                   for kind, by in outside)

    classes = {node.name: node for _, node, owner in definitions
               if owner is None and isinstance(node, ast.ClassDef)}
    unread = []
    for qualified, node, owner in definitions:
        read = is_read(node, owner)
        if not read and node.name in CONSTRUCTION_HOOKS:
            read = any(is_read(classes[c], None)
                       for c in lineage[owner] if c in classes)
        if not read:
            unread.append(qualified)
    return unread


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_every_public_definition_has_a_program_reader():
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))
               if p.stem != "__init__"}
    others = sorted((ROOT / "demos").glob("*.py")) + [
        p for p in sorted((ROOT / "benchmark").rglob("*.py"))
        if "tests" not in p.relative_to(ROOT / "benchmark").parts]
    unread = unread_definitions(modules, [_parse(p) for p in others])
    assert unread == [], (
        "public definitions that only tests read; delete them, or add a "
        f"program reader: {unread}")


SCANNED = """
class Field:
    def __init__(self, f):
        self.f = f

    def value(self, p):
        return self.f(p)

    def both(self, p):
        return self.value(p), self.gradient(p)

    def gradient(self, p):
        return p


class State:
    def value(self, p):
        return p

    def gradient(self, p):
        return p

    def __call__(self, p):
        return p


class Base:
    def __post_init__(self):
        pass

    def shared(self):
        return 1


class Derived(Base):
    def run(self):
        return self.shared()


def use(psi, p):
    return Field(abs).both(p), psi.value(p), Derived().run()
"""


def test_methods_resolve_through_their_owner_class():
    # State.gradient shares its name with Field.gradient, whose one reader is
    # `self.gradient` inside Field; State.value is read through `psi`, whose
    # type is unknown; Base.__post_init__ runs when Derived is built
    unread = unread_definitions({"m": ast.parse(SCANNED)}, [])
    assert sorted(unread) == ["m.State", "m.State.__call__", "m.State.gradient", "m.use"]


def test_the_oracles_import_only_public_names():
    # an oracle is a second route through the package's public surface
    tree = _parse(ROOT / "tests" / "oracles.py")
    imported = [part for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]
                for part in name.split(".") if part]
    assert "abtool" in imported
    assert [part for part in imported if part.startswith("_")] == []
