"""Every public definition, dataclass field, instance attribute and report
key in `src/abtool` has a reader in the program.

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

The same rule holds for values.  A dataclass field is read by an attribute
load, resolved as a method is, or wholesale by `asdict`, `astuple` or
`fields` of its class: a class named directly, or the class a field's
annotation names (`asdict(self.sde)`); any other argument reads every
dataclass.  An attribute a method stores on `self` is read by an attribute
load, resolved as a method is, outside the methods that store it: one that
only its own `__init__` reads could be a local.

A literal string key of a dict in `src` is read by a constant subscript,
`.get` or `in` on an expression that holds the dict.  `_Flow` follows each
dict and tuple literal per producing function: into a call of the function
that returns it, a name assigned from one in the same scope, a parameter
that a call passes it to, a tuple element unpacked from it, and a dict it is
nested or spread into (`**`, `.update`, `d[k] = ...`).  Calls resolve by
name; a bare name never calls a method.  Any other use reads the literal
whole, with every dict and tuple it holds: `.items()`, a subscript that is
not a constant, an argument of a call the scan cannot resolve (`json.dump`,
a constructor, a list's `append`) or that a callee's `*args` takes, a store
into an attribute, iteration over a tuple.  So a report written whole into a
manifest, a table or a CheckResult's details counts as read.  Iterating over
a dict reads its keys only, and an attribute a literal does not have
(`dec.gamma`) reads nothing of it.  A function named without being called (a
dispatch table, a callback) has its return read whole.

Known misses.  Two err toward reading: a call resolves to every function of
its name, so the benchmark's workloads, which all define `run` and
`record`, pass one another's reports; and a loop variable is not bound, so
a report iterated out of a tuple is read whole.  Two err the other way: a
dict passed to a library method that shares its name with a function of
the scanned code is followed into that function, and hashing a frozen
dataclass (an `lru_cache` key) reads its fields without naming them.
An instance attribute shares the first miss of a method: a read through a
receiver of unknown type (`cfg.sde.seed`) reads every attribute of that
name.  Attributes stored on a receiver other than `self`, or read by
`getattr` with a string, are not scanned.
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
        if isinstance(node.ctx, ast.Load):
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


def _all_reads(trees, family):
    reads = []
    for tree in trees:
        visitor = _Reads(family)
        visitor.visit(tree)
        reads += visitor.reads
    return reads


def unread_definitions(modules, program_trees):
    """Qualified names of the public definitions no program code reads.

    modules maps a module name to the AST scanned for definitions; every
    tree in modules and in program_trees is a reader."""
    trees = [*modules.values(), *program_trees]
    family, lineage = _hierarchy(trees)
    definitions = [d for module, tree in modules.items()
                   for d in _definitions(module, tree)]
    reads = _all_reads(trees, family)

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


def _is_dataclass(node):
    return any(_base_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _fields(module, tree):
    """(qualified name, field name, class name, annotated class name) of
    each field of each module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield (f"{module}.{node.name}.{item.target.id}", item.target.id,
                           node.name, _base_name(item.annotation))


def unread_fields(modules, program_trees):
    """Qualified names of the dataclass fields no program code reads."""
    trees = [*modules.values(), *program_trees]
    family, _ = _hierarchy(trees)
    fields = [f for module, tree in modules.items() for f in _fields(module, tree)]
    typed = {name: annotated for _, name, _, annotated in fields
             if annotated in family}
    reads, dumped = _all_reads(trees, family), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args and \
                    _base_name(node.func) in ("asdict", "astuple", "fields"):
                arg = node.args[0]
                kind = arg.id if isinstance(arg, ast.Name) else \
                    typed.get(arg.attr) if isinstance(arg, ast.Attribute) else None
                dumped.add(kind if kind in family else None)
    return [qualified for qualified, name, owner, _ in fields
            if not any(n == name and kind == "attr"
                       and (by is None or by in family[owner])
                       for n, kind, by, _ in reads)
            and not any(c is None or owner in family[c] for c in dumped)]


def _attributes(module, tree):
    """(qualified name, attribute name, class name, storing method) of each
    attribute a method stores on `self`, one per store."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for cls in classes:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) and node.value.id == "self":
                    yield f"{module}.{cls.name}.{node.attr}", node.attr, cls.name, method


def unread_attributes(modules, program_trees):
    """Qualified names of the instance attributes no program code reads
    outside the methods that store them."""
    trees = [*modules.values(), *program_trees]
    family, _ = _hierarchy(trees)
    reads = _all_reads(trees, family)
    stores = {}
    for module, tree in modules.items():
        for qualified, name, owner, method in _attributes(module, tree):
            stores.setdefault((qualified, name, owner), set()).add(id(method))
    return [qualified for (qualified, name, owner), methods in stores.items()
            if not any(n == name and kind == "attr"
                       and (by is None or by in family[owner])
                       and not methods <= set(inside)
                       for n, kind, by, inside in reads)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_WHOLE = object()


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else None


def _targets(assign):
    return assign.targets if isinstance(assign, ast.Assign) else [assign.target]


class _Flow:
    """Where the dict and tuple literals of (label, tree) pairs go.

    `value(node)` is the set of literals an expression may evaluate to; after
    construction `read` holds each (dict, key) some reader subscripts and
    `whole` each literal some reader uses whole (see the module docstring).
    """

    def __init__(self, trees):
        self.parent, self.scope, self.label = {}, {}, {}
        self.defs, self.calls, self.returns, self.binds = {}, {}, {}, {}
        self.keys, self.spreads, self._memo = {}, {}, {}
        self.nodes = []
        for label, tree in trees:
            self._index(tree, tree, label)
        for node in self.nodes:
            if isinstance(node, ast.Call):
                for fn in self._named(node.func):
                    self.calls.setdefault(fn, []).append(node)
        for node in self.nodes:
            self._add_stores(node)
        self._memo = {}         # forget values found before the stores were known
        self.read, self.whole = set(), set()
        for node in self.nodes:
            self._classify(node)

    def _index(self, node, scope, label):
        self.nodes.append(node)
        self.scope[node], self.label[node] = scope, label
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Return) and node.value is not None:
            self.returns.setdefault(scope, []).append(node.value)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    self.spreads.setdefault(node, []).append(value)
                else:
                    self._add_key(node, _literal(key), value, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            for target in _targets(node):
                self._bind(scope, target, node.value, ())
        inner = node if isinstance(node, _FUNCTIONS) else scope
        for child in ast.iter_child_nodes(node):
            self.parent[child] = node
            self._index(child, inner, label)

    def _bind(self, scope, target, value, path):
        if isinstance(target, ast.Name):
            self.binds.setdefault((scope, target.id), []).append((value, path))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, elt in enumerate(target.elts):
                self._bind(scope, elt, value, path + (i,))

    def _add_key(self, obj, key, value, site):
        self.keys.setdefault(obj, {}).setdefault(key, []).append((value, site))

    def _add_stores(self, node):
        """`d[k] = v` adds k to the dicts d holds, `d.update(e)` spreads e in."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    for obj in self._dicts(target.value):
                        self._add_key(obj, _literal(target.slice), node.value, node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "update":
            for obj in self._dicts(node.func.value):
                self.spreads.setdefault(obj, []).extend(node.args)

    def _named(self, ref):
        """The functions an ast.Name or ast.Attribute may name: a bare name
        is never a method."""
        fns = self.defs.get(_base_name(ref), [])
        if isinstance(ref, ast.Name):
            return [f for f in fns if not isinstance(self.parent[f], ast.ClassDef)]
        return fns

    def _dicts(self, node):
        return [obj for obj in self.value(node) if isinstance(obj, ast.Dict)]

    def value(self, node):
        if node not in self._memo:
            self._memo[node] = frozenset()          # a cycle adds nothing
            self._memo[node] = frozenset(self._value(node))
        return self._memo[node]

    def _value(self, node):
        if isinstance(node, (ast.Dict, ast.Tuple)):
            return {node}
        if isinstance(node, ast.Call):
            return {obj for fn in self._named(node.func) for obj in self._returned(fn)}
        if isinstance(node, ast.Name):
            return self._name_value(node)
        if isinstance(node, ast.Subscript):
            key = _literal(node.slice)
            return {obj for held in self.value(node.value)
                    for element in self._entries(held, key)
                    for obj in self.value(element)}
        return set()

    def _returned(self, fn):
        if isinstance(fn, ast.Lambda):
            return self.value(fn.body)
        return {obj for node in self.returns.get(fn, ()) for obj in self.value(node)}

    def _entries(self, obj, key):
        """The expressions obj holds at a constant key (a tuple's at an index)."""
        if key is None:
            return []
        if isinstance(obj, ast.Tuple):
            inside = isinstance(key, int) and -len(obj.elts) <= key < len(obj.elts)
            return [obj.elts[key]] if inside else []
        found = [value for value, _ in self.keys.get(obj, {}).get(key, [])]
        for spread in self.spreads.get(obj, ()):
            found += [v for inner in self._dicts(spread)
                      for v in self._entries(inner, key)]
        return found

    def _name_value(self, node):
        """The binding of the name in its innermost scope that binds it: the
        assignments there, or the arguments every resolved call passes."""
        scope = self._binding_scope(node)
        found = set()
        for value, path in self.binds.get((scope, node.id), ()):
            held = {value}
            for i in path:
                held = {e for h in held for obj in self.value(h)
                        for e in self._entries(obj, i)}
            found |= {obj for h in held for obj in self.value(h)}
        if self._params(scope, node.id):
            for call in self.calls.get(scope, ()):
                found |= {obj for arg in [*call.args, *(k.value for k in call.keywords)]
                          if self._parameter(scope, call, arg) == node.id
                          for obj in self.value(arg)}
        return found

    def _binding_scope(self, name):
        """The innermost scope that binds the ast.Name as a variable."""
        scope = self.scope[name]
        while not ((scope, name.id) in self.binds or self._params(scope, name.id)):
            if isinstance(scope, ast.Module):
                return None
            scope = self.scope[scope]
        return scope

    @staticmethod
    def _params(fn, name):
        if not isinstance(fn, _FUNCTIONS):
            return False
        args = fn.args
        return name in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    @staticmethod
    def _parameter(fn, call, arg):
        """The named parameter of fn that the call passes arg to, else None
        (a `*args` or `**kwargs` catches it)."""
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if isinstance(call.func, ast.Attribute) and positional[:1] in (["self"],
                                                                        ["cls"]):
            positional = positional[1:]
        for kw in call.keywords:
            if kw.value is arg:
                named = positional + [a.arg for a in fn.args.kwonlyargs]
                return kw.arg if kw.arg in named else None
        i = call.args.index(arg)
        starred = any(isinstance(a, ast.Starred) for a in call.args[:i + 1])
        return positional[i] if i < len(positional) and not starred else None

    def _classify(self, node):
        parent = self.parent.get(node)
        if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and not self._binding_scope(node)):
            if isinstance(node.ctx, ast.Load) and not (
                    isinstance(parent, ast.Call) and parent.func is node):
                for fn in self._named(node):    # a dispatch table or a callback
                    self._read_whole(self._returned(fn))
        expression = (ast.Name, ast.Call, ast.Subscript, ast.Dict, ast.Tuple)
        if not isinstance(node, expression) \
                or not isinstance(getattr(node, "ctx", ast.Load()), ast.Load):
            return
        held = self.value(node)
        if isinstance(parent, ast.Attribute):   # only a literal that has it
            held = {obj for obj in held if hasattr(
                dict if isinstance(obj, ast.Dict) else tuple, parent.attr)}
        elif isinstance(parent, (ast.For, ast.comprehension)) \
                and parent.iter is node:
            # a dict iterates over its keys: its values need a subscript
            held = {obj for obj in held if isinstance(obj, ast.Tuple)}
        if held:
            use = self._use(node, parent)
            if use is _WHOLE:
                self._read_whole(held)
            elif use is not None:
                self._read_key(held, use)

    def _use(self, node, parent):
        """A constant key node is read at, None where its flow is followed,
        else _WHOLE."""
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if not isinstance(parent.ctx, ast.Load):
                return None                     # a store: see _add_stores
            key = _literal(parent.slice)
            return _WHOLE if key is None else key
        if isinstance(parent, ast.Attribute):
            call = self.parent.get(parent)
            if parent.attr == "get" and isinstance(call, ast.Call) and call.args \
                    and _literal(call.args[0]) is not None:
                return _literal(call.args[0])
            return None if parent.attr == "update" else _WHOLE
        if isinstance(parent, ast.Compare) and parent.comparators == [node] \
                and isinstance(parent.ops[0], (ast.In, ast.NotIn)) \
                and _literal(parent.left) is not None:
            return _literal(parent.left)
        if isinstance(parent, (ast.Return, ast.Expr, ast.Tuple, ast.Dict)):
            return None                         # followed, or discarded
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            followed = all(map(self._followed_target, _targets(parent)))
            return None if followed else _WHOLE
        if isinstance(parent, ast.keyword):
            parent = self.parent[parent]
        if isinstance(parent, ast.Call) and parent.func is not node:
            callees = self._named(parent.func)
            if callees and all(self._parameter(fn, parent, node) for fn in callees):
                return None                     # followed into the parameter
            func = parent.func
            if isinstance(func, ast.Attribute) and func.attr == "update" \
                    and self._dicts(func.value):
                return None                     # spread: see _add_stores
        return _WHOLE

    def _followed_target(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return all(map(self._followed_target, target.elts))
        return isinstance(target, ast.Name) or (
            isinstance(target, ast.Subscript) and bool(self._dicts(target.value)))

    def _read_key(self, held, key):
        for obj in held:
            if isinstance(obj, ast.Dict):
                if key in self.keys.get(obj, {}):
                    self.read.add((obj, key))
                for spread in self.spreads.get(obj, ()):
                    self._read_key(self.value(spread), key)

    def _read_whole(self, held):
        todo = list(held)
        while todo:
            obj = todo.pop()
            if obj in self.whole:
                continue
            self.whole.add(obj)
            inside = obj.elts if isinstance(obj, ast.Tuple) else [
                v for entries in self.keys.get(obj, {}).values() for v, _ in entries
            ] + self.spreads.get(obj, [])
            for value in inside:
                todo.extend(self.value(value))

    def qualname(self, node):
        names = []
        while node in self.parent:
            node = self.parent[node]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(node.name)
        return ".".join([self.label[node], *reversed(names)])


def unread_keys(modules, program_trees):
    """`module.function['key']` of each literal string key of a dict in the
    modules that no program code reads, named after the function that
    writes the key."""
    flow = _Flow([*modules.items(),
                  *(("<program>", tree) for tree in program_trees)])
    unread = []
    for obj, entries in flow.keys.items():
        if flow.label[obj] not in modules or obj in flow.whole:
            continue
        for key, [(_, site), *_] in entries.items():
            if isinstance(key, str) and (obj, key) not in flow.read:
                unread.append(f"{flow.qualname(site)}[{key!r}]")
    return sorted(unread)


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _package():
    """(src modules by name, program trees)."""
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))
               if p.stem != "__init__"}
    others = sorted((ROOT / "demos").glob("*.py")) + [
        p for p in sorted((ROOT / "benchmark").rglob("*.py"))
        if "tests" not in p.relative_to(ROOT / "benchmark").parts]
    return modules, [_parse(p) for p in others]


def test_every_public_definition_has_a_program_reader():
    unread = unread_definitions(*_package())
    assert unread == [], (
        "public definitions that only tests read; delete them, or add a "
        f"program reader: {unread}")


def test_every_report_key_and_dataclass_field_has_a_program_reader():
    unread = unread_keys(*_package()) + unread_fields(*_package())
    assert unread == [], (
        "report keys and dataclass fields that only tests read; delete "
        f"them, or add a program reader: {unread}")


def test_every_instance_attribute_is_read_outside_its_storing_method():
    unread = unread_attributes(*_package())
    assert unread == [], (
        "attributes that no program code reads outside the methods that "
        f"store them; make them locals, or delete them: {unread}")


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


@dataclass(frozen=True)
class Budget:
    steps: int = 10
    spare: int = 0


def _fields_at(x):
    return {"rho": x, "psi": x}


def _counts(x):
    return {"chi2": x, "dof": x}


def _statistics(x):
    return {"ks": x, **_counts(x)}


def _summary(x):
    return {"mean": x, "spread": x}


def _run(x):
    return _fields_at(x), _statistics(x)


def _record(out):
    fields, stats = out
    return fields["rho"], stats["ks"], stats["chi2"]


def _report(fh):
    x = Budget().steps
    json.dump({"summary": _summary(x)}, fh)
    return _record(_run(x))
"""


def test_methods_resolve_through_their_owner_class():
    # State.gradient shares its name with Field.gradient, whose one reader is
    # `self.gradient` inside Field; State.value is read through `psi`, whose
    # type is unknown; Base.__post_init__ runs when Derived is built
    unread = unread_definitions({"m": ast.parse(SCANNED)}, [])
    assert sorted(unread) == ["m.State", "m.State.__call__", "m.State.gradient", "m.use"]


def test_values_resolve_through_their_producing_function():
    # psi and spare only a test could read; rho reaches _record through the
    # tuple _run returns, chi2 through the dict _counts spreads into
    # _statistics, whose dof no program reads; _summary is written whole
    # into a manifest
    scanned = {"m": ast.parse(SCANNED)}
    assert unread_keys(scanned, []) == ["m._counts['dof']", "m._fields_at['psi']"]
    assert unread_fields(scanned, []) == ["m.Budget.spare"]


def test_a_program_reader_clears_a_value():
    reader = ast.parse("def read(budget):\n"
                       "    return (budget.spare, _counts(1)['dof'],\n"
                       "            _fields_at(1).get('psi'))")
    scanned = {"m": ast.parse(SCANNED)}
    assert unread_keys(scanned, [reader]) == []
    assert unread_fields(scanned, [reader]) == []


PLANTED_ATTRIBUTES = """
class Stream:
    def __init__(self, seed):
        self.seed = seed
        self.key = (self.seed, 0)
        self.spare = None
        self.count = 0

    def draw(self):
        self.count = self.count + 1
        return self.key
"""


def test_an_attribute_needs_a_read_outside_its_storing_method():
    # seed is read only in the method that stores it and spare nowhere;
    # count, stored in two methods, is read in draw, outside __init__; a
    # program reader clears spare
    scanned = {"m": ast.parse(PLANTED_ATTRIBUTES)}
    assert unread_attributes(scanned, []) == ["m.Stream.seed", "m.Stream.spare"]
    reader = ast.parse("def read(stream):\n    return stream.spare")
    assert unread_attributes(scanned, [reader]) == ["m.Stream.seed"]


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
