"""Structural checks on the package source."""

import ast
from pathlib import Path

import properloss

#: Types whose kind only their own modules test; every other module asks a scheme or a loss's sides instead.
SCHEME_AND_LOSS_TYPES = {"FixedSize", "Poisson", "SamplingScheme", "CompiledLoss"}
OWNERS = {"domain.py", "compiler.py"}


def isinstance_lines(path: Path) -> list[str]:
    """``file:line`` of each ``isinstance`` call in ``path`` whose class argument names a scheme or loss type."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))}
            if names & SCHEME_AND_LOSS_TYPES:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_scheme_and_loss_modules_test_scheme_or_loss_types():
    package = Path(properloss.__file__).parent
    found = [line for path in sorted(package.rglob("*.py")) if path.name not in OWNERS for line in isinstance_lines(path)]
    assert found == []


def raised_names(path: Path) -> set[str]:
    """The names that ``raise`` statements in ``path`` raise, called or not: ``raise E(...)`` and ``raise E``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_type_is_raised_somewhere():
    package = Path(properloss.__file__).parent
    errors = {node.name for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.ClassDef)} - {"ProperLossError"}
    raised = set().union(*(raised_names(path) for path in package.rglob("*.py")))
    assert sorted(errors - raised) == []
