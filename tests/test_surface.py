"""Every public definition in `src/abtool` has a reader in the program.

The scan walks the AST of each `src/abtool/*.py` module and collects its
public module-level functions and classes and the public methods and
properties of those classes.  A definition is read when some `ast.Name`,
`ast.Attribute` or import alias carries its name in `src` (outside the
definition's own body and outside `__init__.py`, whose re-exports are not
uses), in `demos` or in `benchmark` (outside `benchmark/tests`).  Strings and
comments are not readers.  Tests are not readers either: a definition that
only tests call is dead library surface.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "abtool"

# Independent second routes that tests check a program path against.
ORACLE_ROUTES = {
    "madelung.quasi_currents":
        "Gamma and Delta from the momentum density, checked against decompose",
    "models.hydrogen_grad_rho":
        "closed-form grad rho of hydrogen, checked against the printed D",
    "wavepackets.gaussian_wavefield":
        "the Gaussian packet as a WaveField, checked against its closed forms",
}


def _definitions(module, tree):
    """(qualified name, node) of each public def, class, method and property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item


def _names_read(tree):
    """Counts of the identifiers read by Name, Attribute or import alias
    nodes in tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
            if node.asname:
                names[node.asname] += 1
    return names


def _program_paths():
    """The program modules outside src/abtool."""
    paths = sorted((ROOT / "demos").glob("*.py"))
    return paths + [p for p in sorted((ROOT / "benchmark").rglob("*.py"))
                    if "tests" not in p.relative_to(ROOT / "benchmark").parts]


def unread_definitions():
    """Qualified names of the public definitions no program code reads."""
    modules = {p.stem: ast.parse(p.read_text(), str(p))
               for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    reads = Counter()
    for tree in [*modules.values(),
                 *(ast.parse(p.read_text(), str(p)) for p in _program_paths())]:
        reads += _names_read(tree)
    # reads inside the definition's own body do not count
    return [qualified for module, tree in modules.items()
            for qualified, node in _definitions(module, tree)
            if reads[node.name] == _names_read(node)[node.name]]


def test_every_public_definition_has_a_program_reader():
    unread = [name for name in unread_definitions() if name not in ORACLE_ROUTES]
    assert unread == [], (
        "public definitions that only tests read; delete them, or add a "
        f"program reader: {unread}")


def test_the_oracle_routes_exist_and_have_no_program_reader():
    # an allow-list entry that gains a program reader, or whose definition
    # is gone, no longer needs its exemption
    assert set(ORACLE_ROUTES) <= set(unread_definitions())
