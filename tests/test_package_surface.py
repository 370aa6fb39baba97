"""Package-surface guard: no test hooks or mutable globals in the modules,
every exported name exists, no module imports scipy, no trace, fan, kappa
scan or 2D sound-speed grid loads numpy, no module uses the
matrix-product operator, the RK4 path does not call a ray right-hand
side, the trace loop advances along one guarded path and judges each
bounce with one guarded reflection call, propagation compares nothing
with a boundary's name, each field and bottom quantity has one
definition, the config reader restates no constructor default and builds
its objects in one call with no ``required`` getter flag, the package
re-exports exactly each module's ``__all__``, the jump matrix
stores only the entries it applies, the verification presets are one
table in the oracle, which imports no numpy, the CLI opens no output
file before its command returns, one function forks, verify forks before
numpy is loaded and no module loads a process pool, threads or ``pickle``
on import, and the README's library example runs as written."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varitrace

SRC = Path(varitrace.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(node):
    """Every name a node binds or refers to, including attributes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.asname or node.name
    elif isinstance(node, ast.arg):
        yield node.arg


def module_name(path):
    return "varitrace" if path.stem == "__init__" else f"varitrace.{path.stem}"


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "propagation", "reflection"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_global_statements_or_testing_hooks(path):
    tree = parse(path)
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Global, ast.Nonlocal)), (
            f"{path.name}:{node.lineno}: module state rebound from a function")
        for name in defined_names(node):
            assert not name.endswith("_for_testing"), f"{path.name}: {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = importlib.import_module(module_name(path))
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_imports_exist():
    tree = parse(SRC / "__init__.py")
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(varitrace, name), f"varitrace does not provide {name}"


REMOVED = {"IndexSample": "environment", "reflect_direction": "reflection",
           "IdentityPair": "reflection", "SpreadingFactor": "propagation",
           "KappaVerification": "oracle", "BottomSample": "environment",
           "ReflectionContext": "reflection", "_ray_step": "propagation",
           "_variation_step": "propagation", "_variation_rhs": "propagation",
           "surface_frame": "environment", "JacobianEstimate": "oracle",
           "trace_fan": "propagation", "identity_checks": "reflection",
           "_OutputFile": "cli", "_open_output": "cli"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_gone(name):
    """Wrappers no ``src/`` code needed: their callers read the plain tuple
    or float underneath, and the fan command calls ``trace_ray`` per angle.
    The split RK4 kernel's three parts are one ``propagation._rk4_step``
    now, the tangent-ratio identities are a test reference
    (``tests/identity_reference.py``), and each command writes into
    ``main``'s in-memory sink, not into an output file opened at its
    first write."""
    module = importlib.import_module(f"varitrace.{REMOVED[name]}")
    assert not hasattr(varitrace, name)
    assert not hasattr(module, name)


def test_config_builds_once_and_checks_each_key_once():
    """``RunConfig.build`` makes the field, bathymetry and trace parameters
    together, with no builder per section, and a missing key is reported
    where the build reads it: no section getter takes ``required``."""
    import inspect

    from varitrace.config import RunConfig, _Section

    assert hasattr(RunConfig, "build")
    assert not [name for name in vars(RunConfig) if name.startswith("build_")]
    assert not hasattr(_Section, "_fetch")
    for name, method in vars(_Section).items():
        if name.startswith("get_"):
            assert "required" not in inspect.signature(method).parameters, name


def test_reflection_is_one_routine():
    """A bounce is one ``kappa_matrix`` call on plain inputs; the jump's
    record type is the module's only other name, and no line of the module
    imports numpy."""
    from varitrace import reflection

    assert reflection.__all__ == ["KappaMatrix", "kappa_matrix"]
    assert not [ast.unparse(node) for node in ast.walk(parse(SRC / "reflection.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "numpy" in ast.unparse(node)]


def test_kappa_matrix_holds_only_what_it_applies():
    """The jump keeps the three entries ``apply`` reads; its zero (2, 1)
    entry and its determinant are checked on ``apply``, not stored."""
    from varitrace.reflection import KappaMatrix

    assert not hasattr(KappaMatrix, "k21")
    assert not hasattr(KappaMatrix, "det")
    assert [f for f in KappaMatrix.__dataclass_fields__] == ["k11", "k12", "k22"]


def test_presets_are_one_table():
    """Each preset is one value of ``oracle.PRESETS``, named once; no
    builder functions or name-to-builder dict beside it, no module of its
    own and no name in ``oracle.__all__``, so the package re-exports none."""
    from varitrace import oracle

    assert not hasattr(oracle, "_BUILDERS")
    assert oracle.PRESET_NAMES == tuple(sc.name for sc in oracle.PRESETS)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("varitrace.presets")
    assert not {"PRESETS", "PRESET_NAMES", "STUDY_PERTURBATION", "VerificationScenario",
                "preset"} & (set(oracle.__all__) | set(vars(varitrace)))


def test_oracle_holds_plain_values():
    """The oracle reads a trace's packed rows and returns each Jacobian
    level as a 2x2 tuple of rows: no line of the module imports numpy."""
    assert not [ast.unparse(node) for node in ast.walk(parse(SRC / "oracle.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "numpy" in ast.unparse(node)]


def test_oracle_checks_at_the_trace_end():
    """The oracle's range is the trace config's r_end and nothing else
    names it: no query-range parameter, no scenario field beside cfg."""
    import inspect

    from varitrace import oracle

    assert list(inspect.signature(varitrace.fd_jacobian).parameters) == [
        "field_", "bath", "cfg", "pert"]
    assert list(inspect.signature(varitrace.verify_kappa).parameters) == [
        "field_", "bath", "cfg", "perts"]
    assert list(oracle.VerificationScenario.__dataclass_fields__) == [
        "name", "field", "bath", "cfg"]


@pytest.mark.parametrize("module", ["environment", "oracle", "propagation", "reflection"])
def test_package_reexports_each_module_all(module):
    """``varitrace/__init__.py`` imports exactly the module's ``__all__``, so
    a name removed from a module leaves no stale re-export behind."""
    imported = {alias.name for node in parse(SRC / "__init__.py").body
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names}
    assert imported == set(importlib.import_module(f"varitrace.{module}").__all__)


def module_level_imports(path, package):
    """Lines of ``path`` that import ``package`` outside every function."""
    tree = parse(path)
    in_functions = {id(node)
                    for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(func)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == package for name in names) and id(node) not in in_functions:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matrix_product_operator(path):
    """No ``@``: a BLAS product rounds as the kernel picked for the CPU
    does, so output bytes would depend on the BLAS build."""
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), f"{path.name}:{node.lineno}: @"


def test_one_definition_per_environment_quantity():
    """A field writes ``index_at`` and a bottom ``_profile``, and nothing
    else restates them: no ``sound_speed`` or ``kind`` beside them, and a
    depth-only ``depth_at`` only where it pays for itself."""
    from varitrace import environment

    assert environment.SoundSpeedField.__abstractmethods__ == {"index_at"}
    assert environment.Bathymetry.__abstractmethods__ == {"_profile"}
    classes = [c for c in vars(environment).values()
               if isinstance(c, type) and c.__module__ == environment.__name__]
    for cls in classes:
        assert not {"sound_speed", "kind"} & set(vars(cls)), cls.__name__
    assert {c.__name__ for c in classes if "depth_at" in vars(c)} == {"Bathymetry", "ArcBottom"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_ray_rhs(path):
    """The ray right-hand side is written into the RK4 step on the plain
    (n, n_r, n_z, n_zz) tuple, not called as ``ray_rhs`` (its closed form
    lives in tests/hamiltonian_reference.py)."""
    for node in ast.walk(parse(path)):
        assert "ray_rhs" not in defined_names(node), f"{path.name}:{node.lineno}: ray_rhs"


def call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_trace_loop_has_one_guarded_advance():
    """Inside ``trace_from_pulse``'s loop, a plain step and a landed bounce
    share one advance: one call each of ``_rk4_step``, which advances
    (z, p) and q together, ``index_at`` and the landed boundary record's
    ``hit``, each inside a ``try`` that handles DomainError and
    ArithmeticError, so a ray leaving a field or bottom, or an index that
    overflows there, ends as ``domain_exit``, never raises.  Each bounce makes one
    ``kappa_matrix`` call, inside a ``try`` that handles GeometryError, so
    a rejected bounce ends the trace instead.  The bracket decision is one
    ``for`` loop over the boundary records, holding every ``gap`` call of
    the loop and the one call each of ``_seed`` and ``_land`` that land a
    bracket, and it lies only in the body of the step screen's ``if`` on
    ``z_end`` and ``z_mid``, so a step in open water makes no call to any
    of them.  Each sample's row is written by one ``fromlist`` call, never
    an item-by-item ``extend``."""
    tree = parse(SRC / "propagation.py")
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "trace_from_pulse")
    (loop,) = [node for node in ast.walk(func) if isinstance(node, ast.While)]

    def guarded_by(error):
        return {id(inner) for node in ast.walk(loop) if isinstance(node, ast.Try)
                and any(error in ast.unparse(handler.type) for handler in node.handlers)
                for stmt in node.body for inner in ast.walk(stmt)}

    calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call)]
    for name, error in (("_rk4_step", "DomainError"), ("index_at", "DomainError"),
                        ("hit", "DomainError"), ("kappa_matrix", "GeometryError"),
                        ("_seed", "DomainError"), ("_land", "DomainError")):
        named = [node for node in calls if call_name(node) == name]
        assert len(named) == 1, f"{name}: {len(named)} calls in the trace loop"
        assert id(named[0]) in guarded_by(error), f"{name} called outside a {error} handler's try"
    assert guarded_by("DomainError") == guarded_by("ArithmeticError"), (
        "an overflow or zero division handled apart from DomainError")

    (hit,) = [node for node in calls if call_name(node) == "hit"]
    assert ast.unparse(hit.func) == "boundary.hit", "a hit not of the landed record"

    screened = {id(inner) for node in ast.walk(loop) if isinstance(node, ast.If)
                and {"z_end", "z_mid"} <= {name.id for name in ast.walk(node.test)
                                           if isinstance(name, ast.Name)}
                for stmt in node.body for inner in ast.walk(stmt)}

    fors = [node for node in ast.walk(loop) if isinstance(node, (ast.For, ast.comprehension))]
    assert len(fors) == 1 and id(fors[0]) in screened, "the brackets are not one screened loop"
    in_bracket_loop = {id(node) for node in ast.walk(fors[0])}
    for name in ("gap", "_seed", "_land"):
        named = [node for node in calls if call_name(node) == name]
        assert named and all(id(node) in in_bracket_loop for node in named), (
            f"a {name} call outside the screened bracket loop")

    names = [call_name(node) for node in calls]
    assert (names.count("fromlist"), names.count("extend")) == (1, 0), "one fromlist per row"


def test_propagation_never_asks_which_boundary():
    """Each boundary is one record (name, gap, hit) that every boundary
    event runs through, so ``propagation.py`` compares nothing with a
    boundary's name: no ``SURFACE`` or ``BOTTOM`` constant and no
    ``"surface"`` or ``"bottom"`` string in any comparison."""
    def names_a_boundary(node):
        if isinstance(node, ast.Name):
            return node.id.strip("_").upper() in {"SURFACE", "BOTTOM"}
        return isinstance(node, ast.Constant) and node.value in {"surface", "bottom"}

    for node in ast.walk(parse(SRC / "propagation.py")):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            assert not any(map(names_a_boundary, operands)), (
                f"propagation.py:{node.lineno}: {ast.unparse(node)}")


ANALYTIC_CFG = """\
[environment]
kind = munk
[bathymetry]
kind = sinusoidal
mean_depth = 2000.0
amplitude = 60.0
wavenumber = 0.003
[trace]
r_start = 0.0
r_end = 3000.0
z0 = 900.0
theta0_deg = 14.0
dr = 20.0
"""

SAMPLED_CFG = """\
[environment]
kind = gridded
file = ssp.txt
[bathymetry]
kind = piecewise
file = bottom.txt
[trace]
r_start = 0.0
r_end = 3000.0
z0 = 50.0
theta0_deg = 10.0
dr = 10.0
"""

def write_tables(directory):
    """The sound-speed and bathymetry tables SAMPLED_CFG reads."""
    (directory / "ssp.txt").write_text("".join(
        f"{z} {1500.0 + 0.05 * z}\n" for z in range(-20, 260, 20)))
    (directory / "bottom.txt").write_text("".join(
        f"{r} {200.0 + 10.0 * (r % 1000 == 0)}\n" for r in range(0, 3500, 250)))


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_range_dependent_grid_loads_neither_numpy_nor_scipy():
    """A 2D grid is fitted and queried in plain Python, like a 1D profile."""
    probe = """\
import sys
from varitrace import GriddedField
z = [20.0 * k for k in range(11)]
field = GriddedField(z, [[1500.0 + 0.05 * d + 1e-3 * r for d in z] for r in range(0, 5000, 1000)],
                     ranges=list(range(0, 5000, 1000)))
print(field.index_at(1234.5, 67.8)[1] != 0.0, "numpy" in sys.modules, "scipy" in sys.modules)
"""
    assert run_fresh(probe).split() == ["True", "False", "False"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_imported_only_inside_functions(path):
    """Importing a module loads no numpy: only the functions and properties
    whose results are arrays import it."""
    assert module_level_imports(path, "numpy") == [], f"{path.name}: numpy at module level"


def test_no_module_imports_scipy():
    """scipy is a test and benchmark reference only: every spline is fitted
    in plain Python."""
    imports = [(path.name, ast.unparse(node))
               for path in MODULES for node in ast.walk(parse(path))
               if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in ast.unparse(node)]
    assert imports == []


def test_one_function_forks():
    """``_fork_map``, which the fan and the oracle map their rays through,
    is the one place a process is forked."""
    forking = [(path.name, func.name) for path in MODULES for func in ast.walk(parse(path))
               if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork"]
    assert forking == [("propagation.py", "_fork_map")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
@pytest.mark.parametrize("package", ["multiprocessing", "concurrent", "threading"])
def test_no_pool_or_threads_imported_at_module_level(path, package):
    """The fan and the oracle fork their workers themselves: no module
    loads a process pool or ``threading`` on import (``_fork_map`` imports
    ``threading`` to count live threads)."""
    assert module_level_imports(path, package) == [], f"{path.name}: {package} at module level"


def test_cli_import_leaves_pickle_unloaded():
    """``pickle`` is imported only where forked children send their results, so
    importing the CLI, which the benchmark's set-up time includes, does not
    load it."""
    assert run_fresh("import sys, varitrace.cli; print('pickle' in sys.modules)").split() == [
        "False"]


_COMMANDS_PROBE = """\
import sys
import varitrace
import varitrace.cli as cli
codes = [cli.main([command, "--config", sys.argv[1], "--output", f"{sys.argv[2]}/{command}.csv"])
         for command in sys.argv[3:]]
print(codes, "numpy" in sys.modules, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("text", [ANALYTIC_CFG, SAMPLED_CFG], ids=["analytic", "sampled"])
def test_trace_fan_and_kappa_scan_load_neither_numpy_nor_scipy(tmp_path, text):
    """The package, and trace, fan and kappa-scan runs over analytic and over
    sampled environments (1D splines are fitted in plain Python), load
    neither numpy nor scipy, and the trace completes; verify loads numpy."""
    write_tables(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "[fan]\nangles_deg = -4, 3\n[kappa_scan]\nalpha_step_deg = 10\n")
    assert run_fresh(_COMMANDS_PROBE, cfg, tmp_path, "trace", "fan", "kappa-scan").split() == [
        "[0,", "0,", "0]", "False", "False"]
    assert "# status: completed" in (tmp_path / "trace.csv").read_text()
    (tmp_path / "verify.cfg").write_text("[verify]\npreset = flat-linear\n")
    assert run_fresh(_COMMANDS_PROBE, tmp_path / "verify.cfg", tmp_path, "verify").split()[:2] == [
        "[0]", "True"]


_FORK_PROBE = """\
import os, sys
import varitrace.cli as cli
fork, at_forks = os.fork, []
def recorded():
    at_forks.append("numpy" in sys.modules)
    return fork()
os.fork, os.sched_getaffinity = recorded, lambda pid: {0, 1}
code = cli.main(["verify", "--config", sys.argv[1], "--output", sys.argv[2]])
print(code, "".join(map(str, at_forks)), "numpy" in sys.modules)
"""


def test_verify_forks_before_numpy_loads(tmp_path):
    """On 2 usable cores, verify forks one child per preset for its
    perturbed rays, each before numpy is loaded, which only the bounce-map
    check after the presets needs."""
    (tmp_path / "verify.cfg").write_text("[verify]\npreset = all\n")
    assert run_fresh(_FORK_PROBE, tmp_path / "verify.cfg", tmp_path / "out").split() == [
        "0", "False" * 4, "True"]


def test_config_restates_no_number():
    """``config.py`` holds no int or float literal: every default a config
    key can omit is the constructor's own, never a copy that can drift."""
    literals = [(node.lineno, node.value) for node in ast.walk(parse(SRC / "config.py"))
                if isinstance(node, ast.Constant) and type(node.value) in (int, float)]
    assert literals == []


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.bounces
    assert namespace["spreading_at"](result, 25_000.0) > 0.0
