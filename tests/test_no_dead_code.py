"""Every public module-level function and class of the package is read by
the package itself or by the acceptance suite: code that no command and no
acceptance criterion reads is deleted, not kept."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# __init__.py only names the package; its imports would count as reads
MODULES = sorted(p for p in (ROOT / "src" / "qni_lab").glob("*.py") if p.name != "__init__.py")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Read by no command yet. The planned slack ledger measures the curvature
# link alpha ||phi_hat - phi*||_F^2 <= L(phi_hat) - L(phi*) exactly through it.
KEPT = {"population_loss_exact"}


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, attributes and from-imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_read_by_the_package_or_the_acceptance_suite():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    loaded = set().union(*map(loaded_names, trees.values()), loaded_names(ast.parse(ACCEPTANCE.read_text())))
    defined = [
        (module, node.name) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert KEPT <= {name for _, name in defined}, "an exception names a definition that is gone"
    assert [f"{module}.{name}" for module, name in defined if name not in loaded | KEPT] == []
