"""Import hygiene: every name a module in ``src/`` or ``tests/`` imports
is used in that module; every private function, method and class in
``src/`` is named somewhere in ``src/`` besides its definition; every
parameter of a function or lambda in ``src/`` is read in its body; and
the benchmark's tracer still finds every function and method it patches
by name.

A name counts as used when it is read anywhere in the module (a
``noqa`` comment does not excuse it), or when the module lists it in
``__all__``, which is how ``blocksplit/__init__.py`` re-exports.
``from __future__`` imports are exempt.

Every sum of polynomial products outside ``ring.py`` runs the one
multiply-accumulate kernel ``ring.sum_of_products``, so no module but
``ring.py`` adds a product into a running sum by hand.  Every field of
a job document is read by the certificate layer's readers, the ones that
read reports, so ``cli.py`` names no polynomial parser of its own.
Every verdict comes out of one checklist runner, so ``src/`` builds a
``Verdict`` only in ``decompose._decide`` and, from a report, in
``Verdict.from_json``.  Every division runs the one division loop,
``ring._reduce_terms``: no module in ``src/`` but ``ring.py`` and
``groebner.py`` names ``_reduce_terms`` or its divisor shape
``_divisor``, so the other modules divide through ``ring``'s
``divide`` and ``divide_exact`` or an ``Ideal``, and a second Euclid or
a second reduction cannot creep in beside them.
The certificate layer imports from ``ring`` alone among the package's
modules, so ``verify-cert`` re-checks with plain ring arithmetic and
never with the Groebner or matrix code that built a verdict.  Only the
certificate layer knows the report keys of its entry kinds, so no other
module in ``src/`` writes, reads, counts or prints one kind by name.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

from blocksplit.certificate import ENTRIES

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(loads('1'))\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed functions, methods and classes (dunders excluded)
    whose name is read nowhere in `sources`, as "file: name".  A name
    counts as read when it appears as a variable, an attribute or an
    imported name."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.append((path, name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{path}: {name}" for path, name in defined if name not in named]


def test_scanner_finds_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n"
                "class _Box:\n    def _peek(self):\n        pass\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "from a import _used\n_Box()._peek\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py: _dead"]


def test_every_private_def_in_src_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_tracer_patches_and_restores_current_names():
    """perfbench/tracer.py looks its targets up by name; a rename or a
    deletion in ``src/`` must fail here, not first in a traced run."""
    # the tracer patches these modules, so they must be loaded first
    import blocksplit.cli
    import blocksplit.decompose
    import blocksplit.groebner
    import blocksplit.matrix
    import blocksplit.oracle

    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    kernel = blocksplit.matrix.kernel
    basis = blocksplit.groebner.Ideal.__dict__["basis"]
    with tracer.Tracer():
        assert blocksplit.matrix.kernel is not kernel
        assert blocksplit.decompose.kernel is blocksplit.matrix.kernel
    assert blocksplit.decompose.kernel is kernel
    assert blocksplit.groebner.Ideal.__dict__["basis"] is basis


def unread_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads, as
    "line N: name(parameter)".  Dunder methods, whose signature Python
    fixes, are skipped."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
        elif isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        else:
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"line {node.lineno}: {name}({p})" for p in params
                if p not in read]
    return out


def test_scanner_finds_an_unread_parameter():
    source = ("def f(a, b, *c, d, **e):\n    return a + d\n"
              "class K:\n    def __init__(self, x):\n        pass\n"
              "    def m(self, y):\n        return lambda z: y\n"
              "def g(u):\n    def h():\n        return u\n    return h\n")
    assert unread_parameters(source) == [
        "line 1: f(b)", "line 1: f(c)", "line 1: f(e)", "line 6: m(self)",
        "line 7: lambda(z)"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_in_src_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def product_accumulations(source: str) -> list[str]:
    """Statements that add a product into a running sum on the same
    target, ``x = x + a * b``, ``x = a * b + x``, ``x = x - a * b``,
    ``x += a * b`` or ``x -= a * b``, as "line N: statement"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign):
            target, op, terms = node.target, node.op, [node.value]
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.value, ast.BinOp)):
            target, op = node.targets[0], node.value.op
            left, right = node.value.left, node.value.right
            same = ast.unparse(target)
            terms = [right] if ast.unparse(left) == same else []
            if isinstance(op, ast.Add) and ast.unparse(right) == same:
                terms.append(left)
        else:
            continue
        if isinstance(op, (ast.Add, ast.Sub)) and any(
                isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                for t in terms):
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    return out


def test_scanner_finds_a_product_accumulation():
    source = ("acc = acc + a * b\nv[j] = v[j] - q * c\nx += a * b\n"
              "y = a * b + y\nz -= 2 * w\n"
              "acc = acc + b\nn = m - a * b\nacc = acc * b + c\n"
              "s = a * b - s\nt += f(a * b)\n")
    assert product_accumulations(source) == [
        "line 1: acc = acc + a * b", "line 2: v[j] = v[j] - q * c",
        "line 3: x += a * b", "line 4: y = a * b + y", "line 5: z -= 2 * w"]


@pytest.mark.parametrize(
    "path", [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p.name != "ring.py"],
    ids=lambda p: str(p.relative_to(ROOT)))
def test_no_hand_written_product_sum_outside_ring(path):
    """Sums of products run ``ring.sum_of_products``, which adds every
    term product into one dict; a hand-written running sum copies the
    sum for each product added."""
    assert product_accumulations(path.read_text(encoding="utf-8")) == []


def test_cli_reads_fields_through_the_certificate_layer():
    source = (ROOT / "src" / "blocksplit" / "cli.py").read_text(
        encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"parse_field", "parse_poly"}


def verdict_builders(source: str) -> list[str]:
    """The qualified name of the function around each ``Verdict(...)``
    call, or "" at module level."""
    out = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "Verdict":
                    out.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def test_scanner_finds_a_verdict_construction():
    source = ("def f():\n    return Verdict(1)\n"
              "class K:\n    def g(self):\n"
              "        return [c.Verdict(v) for v in Verdict(2)]\n"
              "Verdict(3)\nrepr(Verdict)\n")
    assert verdict_builders(source) == ["f", "K.g", "K.g", ""]


def test_verdicts_are_built_only_by_the_runner_and_the_report_reader():
    found = [f"{path.name}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for name in verdict_builders(path.read_text(encoding="utf-8"))]
    assert found == ["certificate.py: Verdict.from_json",
                     "decompose.py: _decide"]


# the division loop and the builder of its divisor shape
DIVISION_LOOP = frozenset({"_reduce_terms", "_divisor"})


def division_loop_names(source: str) -> list[str]:
    """Each naming of the division loop or of a builder of its divisor
    shape, as a variable, an attribute or an imported name, as
    "line N: name"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in DIVISION_LOOP:
            out.append(f"line {node.lineno}: {name}")
    return out


def test_scanner_finds_a_division_loop_name():
    source = ("from .ring import _divisor, divide_exact\n"
              "import blocksplit.ring as ring\n"
              "r, q = ring._reduce_terms(t, (_divisor(g),), key)\n"
              "_reduce = divide_exact\n")
    assert division_loop_names(source) == [
        "line 1: _divisor", "line 3: _reduce_terms", "line 3: _divisor"]


def test_only_the_groebner_engine_drives_the_division_loop():
    found = [f"{path.name}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name not in {"ring.py", "groebner.py"}
             for name in division_loop_names(path.read_text(encoding="utf-8"))]
    assert found == []


def package_imports(source: str) -> list[str]:
    """Each module of the package that `source` imports from, relative
    or as ``blocksplit.<module>``, as "line N: module"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("blocksplit.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0]
                == "blocksplit"):
            module = (node.module or "").removeprefix("blocksplit")
            module = module.lstrip(".").split(".")[0]
            found = [module] if module else [a.name for a in node.names]
        else:
            continue
        out += [f"line {node.lineno}: {m}" for m in found]
    return out


def test_scanner_finds_a_package_import():
    source = ("import math\nfrom typing import Any\n"
              "from .ring import Poly\nfrom . import groebner, matrix\n"
              "import blocksplit.oracle as oracle\n"
              "from blocksplit.quiver import Quiver\n"
              "from blocksplit import cli\n")
    assert package_imports(source) == [
        "line 3: ring", "line 4: groebner", "line 4: matrix",
        "line 5: oracle", "line 6: quiver", "line 7: cli"]


def test_the_certificate_layer_imports_from_ring_only():
    source = (ROOT / "src" / "blocksplit" / "certificate.py").read_text(
        encoding="utf-8")
    assert {f.split(": ")[1] for f in package_imports(source)} == {"ring"}


ENTRY_KEYS = frozenset({kind.KEY for kind in ENTRIES} | {"modulo_order"})


def entry_key_constants(source: str) -> list[str]:
    """Each string constant that is a report key of a certificate entry
    kind, or an entry's ``modulo_order``, as "line N: key" in line
    order."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in ENTRY_KEYS]
    return [f"line {node.lineno}: {node.value}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_scanner_finds_an_entry_key_constant():
    source = ('cert.get("adjugate")\nd["modulo_order"]\n'
              'f"{d[\'identities\']}"\nx = "inclusions: "\n'
              'def f():\n    return {"coprimality": 1, "adjugates": 0}\n')
    assert entry_key_constants(source) == [
        "line 1: adjugate", "line 2: modulo_order", "line 3: identities",
        "line 6: coprimality"]


def test_only_the_certificate_layer_names_entry_keys():
    found = [f"{path.name}: {key}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "certificate.py"
             for key in entry_key_constants(path.read_text(encoding="utf-8"))]
    assert found == []
