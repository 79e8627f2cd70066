"""Structural checks on the package source."""

import ast
import inspect
from pathlib import Path

import properloss
from properloss import builtin_l2, squared_norm_gradient, squared_norm_polynomial

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


#: Arguments that build a loss from each public loss constructor.
CONSTRUCTOR_ARGS = {
    "bregman_known_target": (squared_norm_polynomial(2), squared_norm_gradient(2), 2),
    "compile_known_target": (builtin_l2(2), 2),
    "compile_two_sample": (builtin_l2(2), 2, 2),
    "cross_entropy_poisson": (4.0, 4.0),
    "cross_entropy_poisson_fixed_target": (4.0, 2),
    "entropy_poisson": (4.0,),
    "kl_poisson": (4.0, 4.0),
    "naive_plugin_loss": (2,),
}


def test_every_public_loss_with_a_poisson_side_has_a_per_coordinate_form():
    # the truncated Poisson oracle reads a loss through its per-coordinate form alone
    constructors = {name: obj for name, obj in vars(properloss).items()
                    if inspect.isfunction(obj) and inspect.signature(obj).return_annotation == "CompiledLoss"}
    assert sorted(constructors) == sorted(CONSTRUCTOR_ARGS)  # a new constructor is built here too
    for name, build in constructors.items():
        loss = build(*CONSTRUCTOR_ARGS[name])
        unbounded = any(scheme is not None and not scheme.bounded for scheme in (loss.scheme_p, loss.scheme_q))
        assert loss.coordinate_form if unbounded else loss.coordinate_form is None, name
