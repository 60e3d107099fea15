"""The module layering: each module imports only ``errors`` and the modules listed above it.

The order is the README's: models, truncation, schemes, engine, stability,
cli.  So the engine runs on the schemes module, which imports nothing from
it.  The sources are parsed, not imported, so an import inside a function
body counts as much as one at the top of a module.
"""

import ast
from pathlib import Path

import pytest

import mtemsim as m
from mtemsim import engine, errors, schemes

SRC = Path(m.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports anywhere in its source; ``__init__`` for the package itself."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mtemsim")):
            path = (node.module or "").removeprefix("mtemsim").lstrip(".")
            if path:
                found.add(path.split(".")[0])
            else:  # from . import name: the package, and the module if name is one
                found.add("__init__")
                found.update(a.name for a in node.names if (SRC / f"{a.name}.py").exists())
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mtemsim":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def _names_from_the_package(module: str) -> set[str]:
    """The names ``module`` takes from the package itself that are not modules, as in ``from . import x``."""
    return {alias.name for node in ast.walk(_tree(module)) if isinstance(node, ast.ImportFrom)
            and (node.module == "mtemsim" or (node.level == 1 and not node.module))
            for alias in node.names if not (SRC / f"{alias.name}.py").exists()}


LAYERS = ["errors", "models", "truncation", "schemes", "engine", "stability", "cli"]


def test_every_module_has_a_place_in_the_layers():
    assert {path.stem for path in SRC.glob("*.py")} == {"__init__", "__main__", *LAYERS}


@pytest.mark.parametrize("module", LAYERS)
def test_each_module_imports_only_errors_and_the_modules_listed_above_it(module):
    found = _package_imports(module)
    if module == "cli":
        # The version string has one home, the package's __init__, which binds it before it imports
        # any module; so cli, which writes it into every manifest, may take that one name from it.
        assert _names_from_the_package("cli") == {"__version__"}
        found.discard("__init__")
    assert found <= {"errors", *LAYERS[:LAYERS.index(module)]}


def test_schemes_imports_nothing_from_the_engine_at_any_depth():
    reached, todo = set(), ["schemes"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_package_imports(module))
    assert "engine" not in reached and "__init__" not in reached
    assert "schemes" in _package_imports("engine")


def test_the_overflow_guard_is_assigned_in_the_engine_only():
    assigned = {path.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path.stem))
                if isinstance(node, ast.Name) and node.id == "OVERFLOW_GUARD" and isinstance(node.ctx, ast.Store)}
    assert assigned == {"engine.py"}
    assert not hasattr(schemes, "OVERFLOW_GUARD") and not hasattr(schemes, "simulate_path")


def test_the_package_exports_the_engines_guard_and_single_path_run():
    imported = {alias.name: node.module for node in ast.walk(_tree("__init__"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported["OVERFLOW_GUARD"] == imported["simulate_path"] == "engine"
    assert m.OVERFLOW_GUARD is engine.OVERFLOW_GUARD
    assert m.simulate_path is engine.simulate_path
    assert {"OVERFLOW_GUARD", "simulate_path"} <= set(m.__all__) & set(engine.__all__)


def test_each_input_rule_is_stated_in_models_only():
    checkers = {path.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path.stem))
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")}
    assert checkers == {"models.py"}
    # the CLI restates no library rule: no finiteness test of its own, and no read of a policy's step bound
    names = {node.attr if isinstance(node, ast.Attribute) else node.id for node in ast.walk(_tree("cli"))
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"isfinite", "delta_star"}


def _float_of_an_argument(function: ast.FunctionDef) -> list[str]:
    """The ``float(...)`` calls in ``function`` whose argument is one of its parameters or an item of one."""
    args = function.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    items = {target.id for node in ast.walk(function) if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.iter, ast.Name) and node.iter.id in params
             for target in ast.walk(node.target) if isinstance(target, ast.Name)}
    return [ast.unparse(node) for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float" and node.args
            and ((isinstance(arg := node.args[0], ast.Name) and arg.id in params | items)
                 or (isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Name) and arg.value.id in params))]


def test_no_function_outside_models_and_cli_coerces_an_argument_with_float():
    # float() lets True and "2" through as 1.0 and 2.0: an argument meets a models rule instead; the CLI
    # parses text by design
    found = {f"{module}.{node.name}": calls for module in LAYERS if module not in ("models", "cli")
             for node in ast.walk(_tree(module)) if isinstance(node, ast.FunctionDef)
             if (calls := _float_of_an_argument(node))}
    assert found == {}


_COEFFICIENT_HOLDERS = {"coefficient", "evaluate", "drift", "diffusion"}  # the parameters that are handed one


def _coefficient_calls(tree: ast.AST) -> list[ast.Call]:
    """The calls in ``tree`` of a model's drift or diffusion, or of a name that holds a coefficient."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr in ("drift", "diffusion")
        or isinstance(node.func, ast.Name) and node.func.id in _COEFFICIENT_HOLDERS)]


def test_a_coefficient_is_called_in_models_coefficient_values_only():
    # so every read of a coefficient meets the one shape rule there
    trees = {path.name: _tree(path.stem) for path in sorted(SRC.glob("*.py"))}
    inside = [call for node in ast.walk(trees["models.py"]) if isinstance(node, ast.FunctionDef)
              and node.name == "_coefficient_values" for call in _coefficient_calls(node)]
    found = [f"{name}: {ast.unparse(call)}" for name, tree in trees.items()
             for call in _coefficient_calls(tree) if all(call is not rule_call for rule_call in inside)]
    assert found == []
    assert [ast.unparse(call) for call in inside] == ["coefficient(states)"]


_PLANNERS = {"get_model", "default_policy", "scheme_radius"}  # and every models._check_* rule


def test_the_cli_plans_a_run_in_plan_only():
    # so one function decides which configurations exist and what each one runs
    tree = _tree("cli")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and (node.func.id in _PLANNERS or node.func.id.startswith("_check_"))]
    inside = [call for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_plan"
              for call in ast.walk(node) if isinstance(call, ast.Call)]
    assert [ast.unparse(call) for call in calls if all(call is not planned for planned in inside)] == []
    assert {call.func.id for call in calls} >= _PLANNERS


def test_text_becomes_a_value_in_run_configs_post_init_only():
    # so a field built in code, read from a file and given as a flag meet one parser, the one that replays manifests
    tree = _tree("cli")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_coerce"]
    inside = [call for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "RunConfig"
              for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
              for call in ast.walk(node)]
    assert [ast.unparse(call) for call in calls if all(call is not coerced for coerced in inside)] == []
    assert calls


def test_every_errstate_ignores_over_invalid_and_divide_and_leaves_under_to_the_caller():
    # one floating-point rule for the package; the underflow rule is the caller's on every worker thread
    rule = {"over": "'ignore'", "invalid": "'ignore'", "divide": "'ignore'"}
    sites = {f"{path.stem}:{node.lineno}": {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "errstate"}
    assert sites and [site for site, keywords in sites.items() if keywords != rule] == []


def test_every_random_stream_is_built_in_models_stream_only():
    # so the per-path streams, the sampled radii's and the Lipschitz verifier's all follow one rule
    def builds(tree: ast.AST) -> list[ast.Call]:
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("SeedSequence", "Philox", "Generator")]

    trees = {path.stem: _tree(path.stem) for path in sorted(SRC.glob("*.py"))}
    inside = [call for node in ast.walk(trees["models"]) if isinstance(node, ast.FunctionDef)
              and node.name == "_stream" for call in builds(node)]
    found = [f"{name}: {ast.unparse(call)}" for name, tree in trees.items()
             for call in builds(tree) if all(call is not built for built in inside)]
    assert found == []
    assert len(inside) == 3


def test_every_error_the_package_defines_is_an_mtem_error():
    # so a caller that catches MtemError catches every refusal of the library, a dead drawer's too
    defined = [value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, Exception)]
    assert len(defined) == 8 and all(issubclass(error, m.MtemError) for error in defined)
