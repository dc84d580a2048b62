"""Source hygiene of the runtime package: every imported name is used and
imported from the module that defines it (by the tests too), every name
of a module's ``__all__`` is defined there, every function, class, method
and top-level constant it defines is used, every annotated field of its
classes is read, no check is an assert statement, no cache is bounded, the
terms of an element or a polynomial, packed or not, are written only by its
constructors and by the two conversions of an element between its forms,
every ArithmeticError and ValueError the package raises has a test that
provokes it by its message, and a group is told apart by its spec only
where an allow-list says why, and a basis of the group algebra by its
class, or a value by the attributes it has, nowhere."""
import ast
import re
from pathlib import Path

import pytest

import chered

MODULES = sorted(Path(chered.__file__).parent.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in the module's
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return sorted(name for name in imported if name not in used)


def reexported_imports(sources: dict[str, str],
                       importers: dict[str, str] | None = None) -> list[str]:
    """"module: source.name" of each `from .source import name` in the
    package, and of each `from chered.source import name` in the package or
    in the importers (the tests, say), whose name `source` does not define
    at its top level (as a function, a class or an assigned name), say
    because `source` imports it in turn: a name is imported from its one
    owner."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = {mod: defined_names(tree) for mod, tree in trees.items()}
    scanned = {**trees, **{name: ast.parse(src)
                           for name, src in (importers or {}).items()}}
    found = []
    for mod, tree in scanned.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                source = node.module
            elif node.level == 0 and node.module.startswith("chered."):
                source = node.module[len("chered."):]
            else:
                continue
            if source in defined:
                found += [f"{mod}: {source}.{alias.name}"
                          for alias in node.names
                          if alias.name not in defined[source]]
    return sorted(found)


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or an
    assignment."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def undefined_exports(source: str) -> list[str]:
    """Names a module's ``__all__`` lists but the module does not define at
    its top level (by def, class or an assignment): a stale entry, or a
    name the module only imports."""
    tree = ast.parse(source)
    return sorted(exported_names(tree) - defined_names(tree))


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """"module.name" of each top-level function or class and each non-dunder
    method that no module of the package reads (as a name or an attribute).
    A listing in ``__all__`` is not a read, so a name that only ``__all__``
    and the tests reach is flagged too."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = read_names(trees.values())
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((mod, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(mod, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
    return sorted(f"{mod}.{name}" for mod, name in defined
                  if name.rsplit(".", 1)[-1] not in used)


def unread_constants(sources: dict[str, str]) -> list[str]:
    """"module.name" of each non-dunder top-level assignment that no module
    of the package reads (as a name or an attribute)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = read_names(trees.values())
    assigned = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [(mod, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)
                         and not (n.id.startswith("__") and n.id.endswith("__"))]
    return sorted(f"{mod}.{name}" for mod, name in assigned if name not in used)


def unread_fields(sources: dict[str, str]) -> list[str]:
    """"module.Class.field" of each field of a class, an annotated class
    attribute or a name its `__slots__` lists, that no module of the
    package reads as an attribute: a result record should carry only what
    the package reads.  A field is read as `obj.field`, so a bare name (a
    local variable of the same name, say) does not count as a read.

    Fields are matched by bare attribute name, not by the type of the
    object read: a field passes when any attribute of that name is read
    anywhere, so an unread field named like an attribute read elsewhere
    (`group`, `order`, `index`, ...) is not flagged.  Resolving the receiver
    would need type annotations that the package does not carry."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fields |= {(mod, f"{node.name}.{name}")
                           for name in class_fields(node)}
    return sorted(f"{mod}.{name}" for mod, name in fields
                  if name.rsplit(".", 1)[-1] not in used)


def class_fields(node: ast.ClassDef) -> set[str]:
    """The names a class body annotates, and those its `__slots__` lists
    (one string or a sequence of them)."""
    names = set()
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in item.targets):
            slots = ast.literal_eval(item.value)
            names.update((slots,) if isinstance(slots, str) else slots)
    return names


def read_names(trees) -> set[str]:
    """Every name the modules read, as a name or as an attribute."""
    used: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements of a module: ``python -O``
    strips them, so no check of the package may rest on one."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def bounded_caches(source: str) -> list[int]:
    """Line numbers of each `lru_cache` of a module whose maxsize is not
    None: used bare or called without maxsize (a bound of 128 either way),
    or called with another value.  A cache of the package keeps what it
    computes for the process; one that evicts rebuilds an entry on its next
    use, and its callers would have to allow for that."""
    tree = ast.parse(source)

    def lru(node):
        return (isinstance(node, ast.Name) and node.id == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "lru_cache")

    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and lru(node.func)}
    found = []
    for node in ast.walk(tree):
        if lru(node):
            call = calls.get(id(node))
            size = None if call is None else next(
                (k.value for k in call.keywords if k.arg == "maxsize"),
                call.args[0] if call.args else None)
            if not (isinstance(size, ast.Constant) and size.value is None):
                found.append(node.lineno)
    return sorted(found)


# The attributes that hold the terms of an element or a polynomial: the
# terms of an `MPoly`, and the unpacked terms of a `PBWElement` and its one
# packed form, `packed` in `frame` (`terms` is a view that reads `_terms`).
# The functions that may write them: the constructors of a new `PBWElement`
# or `MPoly`, and the two conversions of an element between its forms,
# which fill a form once, from the other (`cherednik._unpacked`,
# `cherednik._packed`).  The dict methods that change a map in place.
TERMS_SLOTS = ("terms", "_terms", "frame", "packed")
CONSTRUCTORS = ("__init__", "_of", "_from_packed")
CONVERSIONS = ("_unpacked", "_packed")
DICT_CHANGES = ("pop", "popitem", "update", "clear", "setdefault")


def terms_changes(source: str) -> list[str]:
    """"function:line" of each change to a map of TERMS_SLOTS outside the
    functions named in CONSTRUCTORS and CONVERSIONS: an assignment to
    `x.terms` (or `x._terms`, `x.frame`, `x.packed`) or into it (plain, augmented or
    annotated), a `del` of it or from it, or a call of one of DICT_CHANGES
    on it.  An element and a polynomial never change once built, and
    `PBWElement.powers` rests on that; an element only gains, once each,
    the unpacked form of its packed terms and a packed form of its terms
    when it has none."""
    def terms(node):
        # a map of TERMS_SLOTS, or an entry of one at any depth (one packed
        # form of an element, say)
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in TERMS_SLOTS

    def changes(node):
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Attribute)
                    and node.func.attr in DICT_CHANGES
                    and terms(node.func.value))
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            return terms(node) and not isinstance(node.ctx, ast.Load)
        return False

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if where not in CONSTRUCTORS + CONVERSIONS and changes(node):
            found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def group_tests(source: str) -> list[str]:
    """The qualified name of the function (or "" at module level) around
    each test of a `.spec` or `.group` attribute against a string literal:
    a comparison with a string or a tuple, list or set of strings, or a
    `.startswith(...)` call on the attribute or with it as an argument.  A
    comparison of two attributes (`chi.group_spec != W.spec`, say) is not
    such a test, nor is one of a bare name.  A test of which basis of the
    group algebra a value is counts too: `isinstance` against a class of
    BASIS_CLASSES (alone or in a tuple), and `type(...)` compared with one
    by `is`, `is not`, `==` or `!=`.  So does a probe of what a value is by
    the attributes it has: a `hasattr` call, or a `getattr` with a default
    (three arguments)."""
    def attribute(node):
        return isinstance(node, ast.Attribute) and node.attr in ("spec", "group")

    def literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(literal, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def basis_class(node):
        if isinstance(node, ast.Tuple):
            return any(map(basis_class, node.elts))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name in BASIS_CLASSES

    def called(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    def tests_group(node):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(attribute, operands)) and any(map(literal, operands)):
                return True
            return (all(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                        for op in node.ops)
                    and any(called(op, "type") for op in operands)
                    and any(map(basis_class, operands)))
        if called(node, "isinstance"):
            return len(node.args) == 2 and basis_class(node.args[1])
        if called(node, "hasattr"):
            return True
        if called(node, "getattr"):
            return len(node.args) == 3
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
                and (attribute(node.func.value) or any(map(attribute, node.args))))

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if tests_group(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found)


def raise_messages(source: str,
                   exception: str = "ArithmeticError") -> list[tuple[int, list]]:
    """(line, parts) of each `raise <exception>(message)` of a module: the
    message as its literal runs in order, with None for each field of an
    f-string; no part for a message of any other form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == exception):
            continue
        message = node.exc.args[0] if node.exc.args else None
        if isinstance(message, ast.JoinedStr):
            parts = [part.value if isinstance(part, ast.Constant) else None
                     for part in message.values]
        elif (isinstance(message, ast.Constant)
              and isinstance(message.value, str)):
            parts = [message.value]
        else:
            parts = []
        found.append((node.lineno, parts))
    return found


def raises_patterns(source: str, exception: str = "ArithmeticError") -> list[str]:
    """The string patterns of the `pytest.raises(<exception>, match=...)`
    calls of a test module: a literal pattern, or a parameter of the test
    function around the call, which stands for each string value that the
    function's `pytest.mark.parametrize` tables give it."""
    def raises(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises" and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == exception)

    patterns = []

    def visit(node, table):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table = parametrized_strings(node)
        if raises(node):
            for keyword in node.keywords:
                if keyword.arg != "match":
                    continue
                value = keyword.value
                if isinstance(value, ast.Constant):
                    patterns.append(value.value)
                elif isinstance(value, ast.Name):
                    patterns.extend(table.get(value.id, []))
        for child in ast.iter_child_nodes(node):
            visit(child, table)

    visit(ast.parse(source), {})
    return [p for p in patterns if isinstance(p, str)]


def parametrized_strings(func: ast.FunctionDef) -> dict[str, list[str]]:
    """{argument: its string values} from the `pytest.mark.parametrize(names,
    rows)` decorators of a test function whose rows are written out as a
    list or a tuple: a row is a tuple or list of values, one value when one
    name is given, or a `pytest.param(...)` of values."""
    table: dict = {}
    for dec in func.decorator_list:
        if not (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
                and dec.func.attr == "parametrize" and len(dec.args) >= 2
                and isinstance(dec.args[1], (ast.List, ast.Tuple))):
            continue
        names = dec.args[0]
        if isinstance(names, ast.Constant) and isinstance(names.value, str):
            names = [n.strip() for n in names.value.split(",")]
        elif isinstance(names, (ast.List, ast.Tuple)):
            names = [n.value for n in names.elts if isinstance(n, ast.Constant)]
        else:
            continue
        for row in dec.args[1].elts:
            if (isinstance(row, ast.Call) and isinstance(row.func, ast.Attribute)
                    and row.func.attr == "param"):
                values = row.args
            elif len(names) == 1:
                values = [row]
            elif isinstance(row, (ast.Tuple, ast.List)):
                values = row.elts
            else:
                continue
            for name, value in zip(names, values):
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    table.setdefault(name, []).append(value.value)
    return table


def names_message(pattern: str, parts: list) -> bool:
    """Whether a pattern names a message of the given parts: it matches
    within one literal run, or its text, with backslash escapes undone,
    starts at a word of a run that a field follows and holds the next run
    (stripped) after that.  A field may hold any text, so whether the rest
    agrees is left to the test when it runs."""
    if any(run is not None and re.search(pattern, run) for run in parts):
        return True
    text = re.sub(r"\\(\W)", r"\1", pattern)
    for k, run in enumerate(parts[:-1]):
        if not run or parts[k + 1] is not None:
            continue
        later = next((r.strip() for r in parts[k + 2:] if r is not None), "")
        for word in re.finditer(r"\b\w", run):
            head = run[word.start():]
            if text.startswith(head) and later in text[len(head):]:
                return True
    return False


def untested_raises(sources: dict[str, str], tests: dict[str, str],
                    exception: str = "ArithmeticError") -> list[str]:
    """"module:line" of each `raise <exception>` of the package whose
    message no `pytest.raises(<exception>, match=...)` of the tests names:
    a loud check that no test provokes may never fire."""
    patterns = [p for src in tests.values()
                for p in raises_patterns(src, exception)]
    return [f"{mod}:{line}" for mod, src in sources.items()
            for line, parts in raise_messages(src, exception)
            if not any(names_message(p, parts) for p in patterns)]


def test_scanner_flags_unused_and_honours_all():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import gcd as g, lcm\n"
              "__all__ = ['lcm']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["g", "os"]


def test_scanner_flags_reexported_imports():
    sources = {"a": ("import math\n"
                     "from .b import helper\n"
                     "LIMIT: int = 3\n"
                     "TABLE = {}\n"
                     "def f(): return helper()\n"
                     "class C: pass\n"),
               "b": ("from .a import f, C, LIMIT, TABLE\n"
                     "from .a import math as m\n"
                     "from . import a\n"
                     "from json import dumps\n"
                     "def helper(): return dumps(m.pi)\n"),
               "c": ("from .b import helper, dumps\n"
                     "from .a import f\n"
                     "def g():\n"
                     "    from .a import helper as h\n"
                     "    return h, helper, dumps, f\n")}
    assert reexported_imports(sources) == ["b: a.math", "c: a.helper",
                                           "c: b.dumps"]


def test_scanner_flags_reexported_test_imports():
    sources = {"a": "from fractions import Fraction\ndef scale(x): return x\n",
               "b": "from .a import Fraction, scale\ndef twice(x): return 2 * x\n"}
    importers = {"test_x": ("from chered.a import scale\n"
                            "from chered.b import Fraction, scale as s, twice\n"
                            "from chered import a\n"
                            "from chered.missing import thing\n"
                            "from oracles import scale\n"
                            "from fractions import Fraction\n")}
    assert reexported_imports(sources, importers) == [
        "b: a.Fraction", "test_x: b.Fraction", "test_x: b.scale"]


def test_scanner_flags_undefined_exports():
    source = ("from math import gcd\n"
              "__all__ = ['api', 'gcd', 'gone', 'LIMIT', 'Shape']\n"
              "LIMIT: int = 3\n"
              "def api(): return gcd(LIMIT, 6)\n"
              "class Shape: pass\n"
              "def outer():\n"
              "    def gone(): pass\n")
    assert undefined_exports(source) == ["gcd", "gone"]


def test_scanner_flags_unused_definitions():
    sources = {"a": ("__all__ = ['api']\n"
                     "def api(): return _helper()\n"
                     "def _helper(): return B().used()\n"
                     "def _dead(): pass\n"
                     "class B:\n"
                     "    def __repr__(self): return ''\n"
                     "    def used(self): return 1\n"
                     "    def unused(self): return 2\n"),
               "b": "from a import B, api\nclass C(B): pass\nC()\napi()\n"}
    assert unused_definitions(sources) == ["a.B.unused", "a._dead"]


def test_scanner_flags_names_only_all_reaches():
    sources = {"a": ("__all__ = ['api', 'oracle', 'Shown']\n"
                     "def api(): return 1\n"
                     "def oracle(): return 2\n"
                     "class Shown: pass\n"),
               "b": "from a import api\nprint(api())\n"}
    assert unused_definitions(sources) == ["a.Shown", "a.oracle"]


def test_scanner_flags_unread_constants():
    sources = {"a": ("__all__ = ['LIMIT']\n"
                     "__version__ = '1'\n"
                     "LIMIT = 3\n"
                     "_TABLE: dict = {}\n"
                     "_DEAD = (1, 2)\n"
                     "X: int = 4\n"
                     "def f(): return _TABLE\n"),
               "b": "import a\nprint(a.LIMIT, a.f())\n"}
    assert unread_constants(sources) == ["a.X", "a._DEAD"]


def test_scanner_flags_unread_fields():
    sources = {"a": ("from dataclasses import dataclass\n"
                     "LIMIT: int = 3\n"
                     "@dataclass\n"
                     "class Record:\n"
                     "    shown: tuple\n"
                     "    hidden: dict\n"
                     "    counted: int = 0\n"
                     "    def size(self): return len(self.shown)\n"
                     "class Plain:\n"
                     "    __slots__ = ('kept',)\n"
                     "    label: str\n"),
               "b": ("import a\nr = a.Record((), {})\nprint(r.size(), r.counted)\n"
                     "hidden = 1\nprint(hidden)\n")}
    # a variable named like a field is not a read of the field, and a slot
    # is a field whether or not it is annotated
    assert unread_fields(sources) == ["a.Plain.kept", "a.Plain.label",
                                      "a.Record.hidden"]
    sources["b"] += "print(a.Plain().kept)\n"
    assert unread_fields(sources) == ["a.Plain.label", "a.Record.hidden"]
    # the limit of a match by bare name: reading `label` of any object
    # counts as reading Plain.label
    sources["b"] += "print(r.size.label)\n"
    assert unread_fields(sources) == ["a.Record.hidden"]


def test_scanner_flags_group_tests():
    source = ("def f(W, args, chi, spec):\n"
              "    if W.spec == 'b2': pass\n"
              "    if 'b2' != args.group: pass\n"
              "    if W.spec.startswith('cyclic:'): pass\n"
              "    if 'cyclic:5'.startswith(W.spec): pass\n"
              "    if W.spec in ('b2', 'cyclic:2'): pass\n"
              "    if chi.group_spec != W.spec: pass\n"
              "    if spec == 'b2' or W.order() == 2: pass\n"
              "    if W.name == 'b2' or W.spec == spec: pass\n"
              "class C:\n"
              "    def g(self):\n"
              "        return self.group != 'b2'\n"
              "SPEC = build('b2').spec == 'b2'\n"
              "def h(B, x):\n"
              "    if isinstance(B, ReflectionGroup): pass\n"
              "    if isinstance(B, (int, reflgrp.IdempotentBasis)): pass\n"
              "    if type(B) is IdempotentBasis: pass\n"
              "    if ReflectionGroup != type(B): pass\n"
              "    if isinstance(x, Fraction) or type(x) is Fraction: pass\n"
              "    if B.order() is ReflectionGroup: pass\n")
    assert group_tests(source) == ["", "C.g"] + ["f"] * 5 + ["h"] * 4


def test_scanner_flags_attribute_probes():
    source = ("def f(B, name):\n"
              "    if hasattr(B, 'degrees'): pass\n"
              "    top = getattr(B, 'degrees', None)\n"
              "    fields = getattr(B, name)\n"
              "    return B.hasattr(name), B.getattr(name, 1, 2), fields, top\n"
              "class C:\n"
              "    def g(self, name):\n"
              "        return hasattr(self, name) or getattr(self, name, 0)\n")
    assert group_tests(source) == ["C.g", "C.g", "f", "f"]


def test_scanner_flags_terms_changes():
    source = ("class P:\n"
              "    def __init__(self, terms):\n"
              "        self.terms = {}\n"
              "        self.terms.update(terms)\n"
              "    @staticmethod\n"
              "    def _of(terms):\n"
              "        p = P.__new__(P)\n"
              "        p.terms = terms\n"
              "        return p\n"
              "    def scale(self, c):\n"
              "        return P._of({k: c * v for k, v in self.terms.items()})\n"
              "    def bad(self, other, k):\n"
              "        self.terms[k] = 1\n"
              "        other.terms[k] += 1\n"
              "        del self.terms[k]\n"
              "        self.terms, n = {}, 0\n"
              "        self.terms.pop(k)\n"
              "        other.terms.clear()\n"
              "        self.terms.setdefault(k, 1)\n"
              "        copy = dict(self.terms)\n"
              "        copy.pop(k)\n"
              "        return self.terms.get(k), copy\n"
              "def helper(p, k):\n"
              "    p.terms.update({k: 1})\n"
              "    del p.terms\n"
              "class E:\n"
              "    @staticmethod\n"
              "    def _from_packed(frame, packed):\n"
              "        e = E.__new__(E)\n"
              "        e._terms, e.frame, e.packed = None, frame, packed\n"
              "        return e\n"
              "    @property\n"
              "    def terms(self):\n"
              "        return self._terms or _unpacked(self)\n"
              "def _unpacked(e):\n"
              "    e._terms = dict(e.packed)\n"
              "    return e._terms\n"
              "def _packed(e, frame):\n"
              "    e.frame, e.packed = frame, dict(e.terms)\n"
              "    return e.packed\n"
              "def widen(e, frame, k):\n"
              "    e.frame = frame\n"
              "    e._terms[k] = 1\n"
              "    e.packed.setdefault(k, 1)\n"
              "    e.packed[k] = 1\n"
              "    e.packed[k][0] += 1\n"
              "    e.packed[k].update({0: 1})\n"
              "    e.multiples, e.frame = None, frame\n"
              "    del e._terms\n"
              "    return e.packed.get(k), e.frame\n")
    assert terms_changes(source) == [f"bad:{n}" for n in range(13, 20)] + [
        "helper:24", "helper:25"] + [f"widen:{n}" for n in range(42, 50)]


def test_scanner_flags_asserts():
    source = ("def f(x):\n"
              "    assert x, 'message'\n"
              "    if not x:\n"
              "        raise ValueError('assert x')\n"
              "    return [y for y in x if (lambda: 0)() or y]\n"
              "class C:\n"
              "    def g(self):\n"
              "        assert self\n")
    assert assert_lines(source) == [2, 8]


def test_scanner_flags_bounded_caches():
    source = ("import functools\n"
              "from functools import lru_cache\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def a(x): return x\n"
              "@lru_cache(None)\n"
              "def b(x): return x\n"
              "@lru_cache\n"
              "def c(x): return x\n"
              "@functools.lru_cache()\n"
              "def d(x): return x\n"
              "e = lru_cache(maxsize=64)(a)\n"
              "f = lru_cache(maxsize=None)(b)\n"
              "g = functools.lru_cache(16, typed=True)(c)\n")
    assert bounded_caches(source) == [7, 9, 11, 13]


def test_scanner_flags_untested_raises():
    sources = {"a": ("def f(x, n):\n"
                     "    if x:\n"
                     "        raise ArithmeticError('it is not exact')\n"
                     "    if n:\n"
                     "        raise ArithmeticError(f'degree {n} of {x} is'\n"
                     "                              f' not one, but {x}')\n"
                     "    raise ArithmeticError(f'norm of {x} is not 1')\n"
                     "def g(message):\n"
                     "    raise ArithmeticError(message)\n"
                     "    raise ArithmeticError(f'{message} {message}')\n"
                     "    raise ArithmeticError('caught as a ValueError')\n"
                     "    raise ValueError('not exact')\n")}
    tests = {"test_a": ("import pytest\n"
                        "def test_f():\n"
                        "    with pytest.raises(ArithmeticError,\n"
                        "                       match='not exact'):\n"
                        "        pass\n"
                        "    with pytest.raises(ArithmeticError,\n"
                        "                       match=r'degree 3 of'\n"
                        "                             r' \\(y\\) is not one'):\n"
                        "        pass\n"
                        "    with pytest.raises(ArithmeticError, match='norm is'):\n"
                        "        pass\n"
                        "    with pytest.raises(ArithmeticError, match='norm of z'):\n"
                        "        pass\n"
                        "    with pytest.raises(ValueError, match='a ValueError'):\n"
                        "        pass\n"
                        "    with pytest.raises(ArithmeticError):\n"
                        "        pass\n")}
    # a pattern may fill a field with any text, but must reach the text
    # after it; a message that is not a string, or is no more than its
    # fields, has no text to name
    assert untested_raises(sources, tests) == ["a:7", "a:9", "a:10", "a:11"]
    tests["test_b"] = ("import pytest\n"
                       "pytest.raises(ArithmeticError, match=r'of \\d is not 1')\n")
    assert untested_raises(sources, tests) == ["a:9", "a:10", "a:11"]


def test_scanner_reads_parametrized_patterns():
    sources = {"a": ("def f(x):\n"
                     "    raise ValueError('expected 3 values')\n"
                     "    raise ValueError('values must sum to zero')\n"
                     "    raise ValueError('second factor must be linear')\n"
                     "    raise ValueError('not reached by a row')\n"
                     "    raise ValueError('only an ArithmeticError row')\n")}
    tests = {"test_a": (
        "import pytest\n"
        "@pytest.mark.parametrize('call, message', [\n"
        "    (lambda: f(1), 'expected 3'),\n"
        "    pytest.param(lambda: f(2), 'must sum', id='sum'),\n"
        "    (lambda: f(3), other),\n"
        "])\n"
        "def test_f(call, message):\n"
        "    with pytest.raises(ValueError, match=message):\n"
        "        call()\n"
        "@pytest.mark.parametrize('message', ['factor must', 'an Arith'])\n"
        "@pytest.mark.parametrize(('n', 'reached'), [(1, 'not reached')])\n"
        "def test_g(message, n, reached):\n"
        "    with pytest.raises(ValueError, match=message):\n"
        "        f(n)\n"
        "    with pytest.raises(ArithmeticError, match=reached):\n"
        "        f(n)\n"
        "def test_h(message='only an'):\n"
        "    with pytest.raises(ValueError, match=message):\n"
        "        f(0)\n")}
    # a row names a message only under its own exception, and a parameter
    # only in the function its table decorates
    assert untested_raises(sources, tests, "ValueError") == ["a:5"]
    assert untested_raises(sources, tests) == []


def test_scanner_needs_a_literal_run_before_a_field():
    sources = {"a": ("def f(lo, hi, d, got, want, n, key, c):\n"
                     "    raise ValueError(f'supported for {lo} <= d <= {hi},'\n"
                     "                     f' got d = {d}')\n"
                     "    raise ArithmeticError(f'dimension {got}, expected'\n"
                     "                          f' {want} (|W| = {n})')\n"
                     "    raise ArithmeticError(f'coefficient {key} of {n} is'\n"
                     "                          f' {c}/{n}, not an integer')\n")}
    tests = {"test_a": ("import pytest\n"
                        "pytest.raises(ValueError, match='2 <= d <= 10')\n"
                        "pytest.raises(ArithmeticError,\n"
                        "              match=r'sum of chi\\(1\\)\\^2 differs')\n"
                        "pytest.raises(ArithmeticError,\n"
                        "              match='norm of z3 is not rational')\n")}
    # a pattern that starts inside a field names no message, however short
    # the runs after that field are (')', 'of', 'is', '/')
    assert untested_raises(sources, tests, "ValueError") == ["a:2"]
    assert untested_raises(sources, tests) == ["a:4", "a:6"]
    tests["test_b"] = ("import pytest\n"
                       "pytest.raises(ValueError,\n"
                       "              match='supported for 2 <= d <= 10')\n"
                       "pytest.raises(ArithmeticError, match=r'\\(\\|W\\| =')\n"
                       "pytest.raises(ArithmeticError, match='not an integer')\n")
    assert untested_raises(sources, tests, "ValueError") == []
    assert untested_raises(sources, tests) == []


# Public functions that only the tests and the benchmark call.  Any other
# function of the package that only tests reach belongs in tests/oracles.py.
TEST_ONLY_API = {
    # centrality and Z1-Z9 in one list: perfbench/workloads.py imports it,
    # so it leaves the package with the change to the benchmark that calls
    # verify_b2_centrality and verify_b2_relations instead
    "center.verify_b2_center",
}


def test_no_unused_definitions():
    found = unused_definitions({p.stem: p.read_text() for p in MODULES})
    assert found == sorted(TEST_ONLY_API)


def test_imports_name_their_owner():
    tests = {p.name: p.read_text() for p in TEST_FILES}
    assert reexported_imports({p.stem: p.read_text() for p in MODULES},
                              tests) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert undefined_exports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unread_constants():
    assert unread_constants({p.stem: p.read_text() for p in MODULES}) == []


def test_no_unread_fields():
    assert unread_fields({p.stem: p.read_text() for p in MODULES}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_terms_change_only_in_constructors(path):
    assert terms_changes(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bounded_caches(path):
    assert bounded_caches(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert assert_lines(path.read_text()) == []


# The classes of a basis of the group algebra, which the PBW engine reads
# without telling them apart (`group_tests`).
BASIS_CLASSES = ("_Basis", "ReflectionGroup", "IdempotentBasis")


# The tests of a group's spec that remain outside `reflgrp.build_group` (the
# one parser of a spec, which reads a bare name): the facts of a group belong
# to its builder, and each site here is a computation that differs by group.
GROUP_TESTS = {
    "cherednik.center_presentation":
        "the named generators and the P-basis of Z, one branch for both",
    "center.minpoly_euler":
        "the rank-1 relation against the B2 multiplication matrix",
    "cli.cmd_verify_center":
        "rank 1 checks its one relation, B2 the centrality of four generators",
    "cli.cmd_verify_relations":
        "refuses a --group other than b2 with its own usage message",
    "cli._cells_for":
        "B2 cells and rank-1 cells are separate constructions",
}


def test_every_arithmetic_error_is_provoked():
    tests = {p.name: p.read_text() for p in TEST_FILES}
    assert untested_raises({p.stem: p.read_text() for p in MODULES},
                           tests) == []


def test_every_value_error_is_provoked():
    tests = {p.name: p.read_text() for p in TEST_FILES}
    assert untested_raises({p.stem: p.read_text() for p in MODULES},
                           tests, "ValueError") == []


def test_every_usage_error_is_provoked():
    """As for ArithmeticError and ValueError; a usage error that passes a
    library ValueError on, `raise UsageError(str(exc))`, has no text of its
    own to name, and its text is named at the raise of that ValueError."""
    tests = {p.name: p.read_text() for p in TEST_FILES}
    sources = {p.stem: p.read_text() for p in MODULES}
    passed_on = [f"{mod}:{n}" for mod, src in sources.items()
                 for n, line in enumerate(src.splitlines(), 1)
                 if line.strip() == "raise UsageError(str(exc))"]
    assert sorted(untested_raises(sources, tests, "UsageError")) == sorted(
        passed_on)


def test_group_tests_are_allowed():
    found = [f"{p.stem}.{where}" for p in MODULES
             for where in group_tests(p.read_text())]
    assert sorted(found) == sorted(GROUP_TESTS)
