"""Code that only its own unit tests reach is deleted, and this test keeps it so.

Every module-level function and class of the package, and every method and
property of its classes, must be reached: its name is read in the package's
code (not a docstring, a comment or a local variable of that name) outside
its own body, or it appears as a word in the benchmark harness
(perfbench/*.py, whose tracer names its spans in strings) or in
tests/test_acceptance.py. A read C.name, where C names a package class,
reaches C's member only; any other read of a name (rho.diagonal(),
type(ch).superoperators) reaches every member of that name. Uses inside a
symbol that is not reached do not count, so the reached set is grown from
the module-level code until it stops changing. Every name a module imports
must also be used in it.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qedvqe"

# qualified name -> why it stays although nothing above reaches it
KRAUS = "each channel's Kraus operators are the reference its rate-built superoperators are tested against"
ALLOWED = {
    "y": "every one-qubit gate kind keeps its constructor",
    "z": "every one-qubit gate kind keeps its constructor; the builder tests insert it as a phase flip",
    "PauliNoise.kraus": KRAUS,
    "DampingNoise.kraus": KRAUS,
    "StateVector.zero": "the |0...0> ket the tests' statevector oracles start from, the twin of DensityMatrix.zero",
}


def _symbols(tree):
    """(qualname, node) of each module-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _used_names(node, skip=(), classes=frozenset()):
    """Names and attribute names that node's code uses, not counting the subtrees in skip.

    A name counts where it is read and no enclosing function binds it (as a parameter or an
    assignment target), so a local variable does not reach a symbol of the same name. An
    attribute of a name in classes, bare or a module's attribute (C.name, mod.C.name), counts
    as "C.name"; any other attribute as its bare name.
    """
    stack, names = [(node, frozenset())], set()
    while stack:
        n, local = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local.union(
                b.arg if isinstance(b, ast.arg) else b.id
                for b in ast.walk(n)
                if isinstance(b, ast.arg) or isinstance(b, ast.Name) and isinstance(b.ctx, ast.Store)
            )
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            owner = n.value.attr if isinstance(n.value, ast.Attribute) else getattr(n.value, "id", None)
            names.add(f"{owner}.{n.attr}" if owner in classes and owner not in local else n.attr)
        stack.extend((c, local) for c in ast.iter_child_nodes(n) if c not in skip)
    return names


def test_every_package_symbol_is_reached_and_every_import_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    symbols = {(mod, qual): node for mod, tree in trees.items() for qual, node in _symbols(tree)}
    nodes = set(symbols.values())
    classes = {node.name for node in nodes if isinstance(node, ast.ClassDef)}
    # each use belongs to the innermost symbol around it, or to the module's own code
    module_uses = set().union(*(_used_names(tree, nodes, classes) for tree in trees.values()))
    uses = {key: _used_names(node, nodes - {node}, classes) for key, node in symbols.items()}
    external = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    words = set(re.findall(r"\w+", "".join(path.read_text() for path in external)))

    reached, live = set(), module_uses | words
    while True:
        grown = {key for key in symbols if key[1] in live or key[1].rsplit(".", 1)[-1] in live}
        if grown == reached:
            break
        reached = grown
        live = module_uses | words | set().union(*(uses[key] for key in reached))
    unreached = sorted(f"{mod}.{qual}" for mod, qual in set(symbols) - reached if qual not in ALLOWED)
    assert not unreached, f"reached only from their own tests, or not at all: {unreached}"

    unused = []
    for mod, tree in trees.items():
        if mod == "__init__":  # its imports are the package's re-exports
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        unused += [f"{mod}: {name}" for name in sorted(imported - _used_names(tree))]
    assert not unused, f"imported but not used: {unused}"
