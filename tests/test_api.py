"""The public names of the package, which of them the commands run, and
static checks of its modules."""

import ast
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import equiwave
import equiwave.cli
import equiwave.errors
import equiwave.solver
import equiwave.spectral
from equiwave.spectral import DiscreteRadialOperator


def test_every_export_resolves_once():
    missing = [name for name in equiwave.__all__ if not hasattr(equiwave, name)]
    assert missing == []
    assert len(set(equiwave.__all__)) == len(equiwave.__all__)


def test_every_error_survives_pickling():
    # an error of the psi half of consistency_check crosses a pipe to the caller
    errors = [cls for _, cls in inspect.getmembers(equiwave.errors, inspect.isclass)
              if issubclass(cls, equiwave.errors.EquiwaveError)]
    assert equiwave.errors.BlowUp in errors
    for cls in errors:
        exc = cls(0.5, 3.0) if cls is equiwave.errors.BlowUp else cls("a message")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert (str(copy), copy.args, vars(copy)) == (str(exc), exc.args, vars(exc))
    blowup = pickle.loads(pickle.dumps(equiwave.errors.BlowUp(0.5, 3.0, "custom")))
    assert (blowup.t, blowup.r, str(blowup)) == (0.5, 3.0, "custom")


def test_every_error_is_raised_in_the_package():
    # an error class that no raise statement of src/equiwave names is one
    # that nothing can meet: it goes with its last raise
    errors = {node.name for node in ast.parse(Path(equiwave.errors.__file__).read_text()).body
              if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert errors - raised == set()


def test_no_dense_eigen_calculus_in_the_package():
    # the dense eigenbasis is a test oracle (tests/_dense.py), not an API
    assert "evolve_linear" not in equiwave.__all__
    assert not hasattr(equiwave, "evolve_linear")
    for name in ("evolve_linear", "_powered"):
        assert not hasattr(equiwave.spectral, name)
    for name in ("_eig", "eigenvectors", "coefficients", "from_coefficients"):
        assert not hasattr(DiscreteRadialOperator, name)
    # the operator is the only stencil object: no separate stencil class
    # or field (a field without a default is no class attribute)
    assert not hasattr(equiwave.spectral, "_Stencil")
    fields = {f.name for f in dataclasses.fields(DiscreteRadialOperator)}
    assert "stencil" not in fields and {"F", "rho"} <= fields


# the modules of the package but __init__.py, which imports to re-export
MODULES = sorted(p for p in Path(equiwave.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_only_spectral_reads_the_operator_weights():
    # the weights F and rho of the stencil, the volume weights of R^m and
    # the sums over them (the row-by-row accumulate, the trapezoid in time)
    # are written once, in spectral.py
    weights = {"F", "rho", "volume_weights", "trapezoid"}
    reads = []
    for path in MODULES:
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Attribute):
                accumulate = (node.attr == "accumulate" and isinstance(node.value, ast.Attribute)
                              and node.value.attr == "add")
                names = [node.attr] if node.attr in weights or accumulate else []
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name in weights]
            reads += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert reads == []


def test_one_constructor_builds_every_not_run_record():
    # a stage, check or condition that cannot run gets its record from
    # admissibility._not_run, the one function that writes the key not_run
    # (a ConditionVerdict keeps it as a field, and its to_json calls
    # _not_run); _summary_lines only reads it, and no helper of its own
    # decides a missing h_inf
    writers, readers, no_limit = set(), set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        # node -> outermost enclosing function, which holds a nested one;
        # ast.walk goes outside in
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), f"{path.stem}.{fn.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = [key.value for key in node.keys if isinstance(key, ast.Constant)]
                if "not_run" in keys:
                    writers.add(owner.get(id(node)))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
                  and any(kw.arg == "not_run" for kw in node.keywords)):
                writers.add(owner.get(id(node)))
            elif isinstance(node, ast.Constant) and node.value == "not_run":
                readers.add(owner.get(id(node)))
            names = {getattr(node, key, None) for key in ("id", "name", "attr")}
            if "_no_limit" in names:
                no_limit.append(f"{path.name}:{node.lineno}")
    assert writers == {"admissibility._not_run"}
    assert readers <= {"admissibility._not_run", "cli._summary_lines"}
    assert no_limit == []
    # each producer writes its own reason, so the printer of stderr knows
    # no record shape: the only words among the string constants of
    # _summary_lines, past its docstring, are the keys of the verdict
    # record and the name that labels a record in a list (a condition)
    summary = next(node for node in ast.parse(Path(equiwave.cli.__file__).read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "_summary_lines")
    words = {node.value for stmt in summary.body[1:] for node in ast.walk(stmt)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(c.isalpha() for c in node.value)}
    assert words <= {"verdict", "reason", "not_run", "name"}


def test_only_the_fork_helper_uses_multiprocessing():
    # one fork mechanism, solver._forked_run, which imports multiprocessing
    # in its body, so importing the package loads none of it, and makes
    # the one buffer shared with a child, the one use of mmap; it alone
    # takes the buffer's madvise, so no other code can free a block
    uses = {"multiprocessing": set(), "mmap": set(), "madvise": set()}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function; ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(node): fn.name for node in ast.walk(fn)})
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            for module, users in uses.items():
                if any(name.split(".")[0] == module for name in names):
                    users.add(f"{path.name}:{owner.get(id(node))}")
    assert uses == {"multiprocessing": {"solver.py:_forked_run"},
                    "mmap": {"solver.py:_forked_run"},
                    "madvise": {"solver.py:_forked_run"}}


def test_force_and_energy_take_one_path_for_both_formulations():
    # the formulation picks the operator and s = b u once, in __init__: the
    # force closure of bind, which every step runs, and the energy never
    # read it, nor a name that bind sets from it (measure may: s = u or w u)
    tree = ast.parse(Path(equiwave.solver.__file__).read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "_Run"]
    methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    bind = methods["bind"]
    derived = {target.id for node in ast.walk(bind)
               if isinstance(node, ast.Assign) and _names_read(node.value)["formulation"]
               for target in node.targets if isinstance(target, ast.Name)}
    (force,) = [fn for fn in ast.walk(bind)
                if isinstance(fn, ast.FunctionDef) and fn.name == "force"]
    reads = [f"{fn.name}:{node.lineno}" for fn in (force, methods["energy"])
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "formulation"
             or isinstance(node, ast.Name) and node.id in derived]
    assert reads == []


def test_spectral_solves_go_through_two_helpers():
    # scipy is reached only through _linalg(), scipy's LAPACK module,
    # whose routines are the three eigensolve routines and two solves:
    # the complex shifted solve (resolvent, contour nodes) and the real
    # positive definite solve (the poles of the square roots)
    tree = ast.parse(Path(equiwave.spectral.__file__).read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update({id(node): fn.name for node in ast.walk(fn)})

    def from_linalg(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_linalg")

    routines, solves, scipy_users = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and from_linalg(node.value):
            routines.add(node.attr)
            if node.attr.endswith("sv"):
                solves.add((owner.get(id(node)), node.attr))
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        if any(name.split(".")[0] == "scipy" for name in names):
            scipy_users.add(owner.get(id(node)))
    assert routines == {"dsterf", "dstebz", "dstein", "dptsv", "zgtsv"}
    assert solves == {("_shifted_solve", "zgtsv"), ("_spd_solve", "dptsv")}
    assert scipy_users == {"_linalg"}


def _names_read(node) -> Counter:
    """How often each name is read below node, as a Name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _attributes_read(node) -> Counter:
    """How often each attribute is read (not assigned) below node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


# the methods that no other code of the package reads, each with the
# reason it stays
METHODS_NOT_READ_BY_THE_PACKAGE = {
    "Trajectory.final_state": "the in-process solver API: demo 05 reverses a run from it",
}


def test_every_module_function_is_used_or_exported():
    # a module-level function that no other code of the package names, and
    # that is not public, is dead code; so is a method of any class (but a
    # dunder method) that no other code of the package reads as an
    # attribute, whatever local variable or nested function shares its name
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(equiwave.__file__).parent.glob("*.py")}
    reads = sum((_names_read(tree) for tree in trees.values()), Counter())
    dead = [f"{name}:{fn.lineno} {fn.name}" for name, tree in trees.items()
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name not in equiwave.__all__
            and reads[fn.name] == _names_read(fn)[fn.name]]
    assert dead == []
    attributes = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unread = {f"{cls.name}.{fn.name}" for tree in trees.values()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("__")
              and attributes[fn.name] == _attributes_read(fn)[fn.name]}
    assert unread == set(METHODS_NOT_READ_BY_THE_PACKAGE)


# the attributes set on self that no other code of the package reads,
# each with the reason it stays
ATTRIBUTES_NOT_READ_BY_THE_PACKAGE = {}


def test_every_instance_attribute_is_read_or_has_a_reason():
    # an attribute that a method stores on self, and whose name no code of
    # the package loads as an attribute of any object, is state that
    # nothing reads
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(equiwave.__file__).parent.glob("*.py")}
    attributes = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unread = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and not attributes[node.attr]):
                unread.setdefault(f"{name}.{node.attr}", []).append(node.lineno)
    assert set(unread) == set(ATTRIBUTES_NOT_READ_BY_THE_PACKAGE), unread


# the parameters that their function never reads, each with the reason
# it stays
PARAMETERS_NOT_READ = {
    "cli.run_verify.out": "main calls every stage of PIPELINES as (scenario, out)",
}


def test_every_parameter_is_read_or_has_a_reason():
    # a parameter of a function, a method, a closure or a lambda that its
    # body never reads (but the self or cls of a method) is no input
    unread = set()
    for path in Path(equiwave.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{path.stem}.{getattr(fn, 'name', '<lambda>')}.{a.arg}" for a in params
                       if a.arg not in read and a.arg not in ("self", "cls")}
    assert unread == set(PARAMETERS_NOT_READ)


# the public functions that no command runs, each with the reason it stays
NOT_RUN_BY_A_COMMAND = {
    "integrate": "the in-process solver API (README quick start, demo 05, bench)",
    "consistency_check": "the in-process solver API (demo 05, bench)",
    "check_perturbation": "certifies perturbations of a base; no command yet "
                          "(ROADMAP item 11)",
    "hardy_probe_family": "the in-process estimates API: demo 04's near-extremal probes "
                          "show that Hardy's constant 4 is sharp; the command's Hardy "
                          "check calibrates the quadrature on the Gaussian family",
}

# a custom target that uses every operator of the grammar, with a
# one-operand fold, a natural and a real power and both cutoffs, as
# g(s) = s + s^3 X(s) / 1000, so g(0) = 0, g'(0) = 1 and g''(0) = 0
EVERY_OPERATOR = ["+", "r", ["*", 0.001, ["pow", "r", 3], ["+", [
    "*", ["exp", "r"]], ["sin", "r"], ["sinh", "r"], ["cosh", "r"], ["sqrt", ["+", 1, "r"]],
    ["/", 1, ["+", 2, "r"]], ["pow", ["+", 2, "r"], 0.5], ["cutoff", 0.1],
    ["sqrt_cutoff", 0.1]]]]

# the scenarios that the guards below run `all` over, small (N = 300,
# T = 2, every estimate check) unless they say otherwise, with the exit
# code of each: a built-in target; at even n a custom target, which takes
# the contour of the fractional powers and is stepped by the jet kernels
# of its tree bound at order 1 (dt_factor 0.05 keeps the energy drift of
# the n = 4 run within the evolve bound); the failing verdicts of
# tests/test_scenario_cli.py (the sin base, which verify rejects, so the
# evolve stage, whose field leaves the target domain where h = sin r
# vanishes, is not run; BULGE, which has no delta0,
# here with zero data; the flat base on a grid too short for the
# smoothing frequencies, whose coarse time step also takes the energy
# drift past its bound); a base h = r e^(sin r) > 0 without a curvature
# limit, whose condition iii is not run; and every operator of the
# grammar in a target, with a domain bound of its own
TRACED_SCENARIOS = [
    ({"manifold": {"kind": "hyperbolic"}, "target": {"kind": "sphere"}, "n": 3}, 0),
    ({"manifold": {"kind": "hyperbolic"}, "target": {"kind": "custom", "expr": ["sin", "r"]},
      "n": 4}, 0),
    ({"manifold": {"kind": "sin"}, "target": {"kind": "sphere"}, "n": 3}, 1),
    ({"manifold": {"kind": "custom", "expr": [
        "+", "r", ["*", 0.3, ["pow", "r", 3], ["pow", ["+", 1, ["*", "r", "r"]], -2]]]},
      "target": {"kind": "sphere"}, "n": 3, "grid": {"R_max": 60.0, "N": 1000},
      "data": {"shape": "zero"}}, 1),
    ({"manifold": {"kind": "flat"}, "target": {"kind": "sphere"}, "n": 3, "delta0": 0.5,
      "grid": {"R_max": 20.0, "N": 300}, "data": {"amplitude": 0.5},
      "time": {"T": 2.0, "dt_factor": 0.4, "snap_every": 0.5}}, 1),
    ({"manifold": {"kind": "custom", "expr": ["*", "r", ["exp", ["sin", "r"]]]},
      "target": {"kind": "sphere"}, "n": 3}, 1),
    ({"manifold": {"kind": "hyperbolic"},
      "target": {"kind": "custom", "expr": EVERY_OPERATOR, "domain_bound": 3.0}, "n": 3}, 0),
]


@pytest.fixture(scope="module")
def command_trace(tmp_path_factory):
    """The codes, lines and calls of tests/_command_trace.py over `all` on
    every scenario of TRACED_SCENARIOS, `closed-forms`, and `verify` with
    --seed (a command but `all`, and the seed option), with the bodies of
    their forked evolve children; lines and calls are sets of (file name,
    line) of the package's files."""
    tmp = tmp_path_factory.mktemp("trace")
    paths = []
    for i, (spec, _) in enumerate(TRACED_SCENARIOS):
        paths.append(str(tmp / f"s{i}.json"))
        Path(paths[-1]).write_text(json.dumps({
            "k": 1, "grid": {"R_max": 25.0, "N": 300},
            "time": {"T": 2.0, "dt_factor": 0.05, "snap_every": 0.5},
            "checks": ["hardy", "smoothing", "strichartz", "dimshift"], **spec}))
    commands = [["all", "--scenario", path, "--out", str(tmp / f"out{i}")]
                for i, path in enumerate(paths)]
    commands += [["closed-forms", "--out", str(tmp / "closed")],
                 ["verify", "--scenario", paths[0], "--out", str(tmp / "seed"), "--seed", "3"]]
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env = {**os.environ, "EQUIWAVE_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = Path(__file__).with_name("_command_trace.py")
    plan = json.dumps({"commands": commands, "children": paths})
    out = subprocess.run([sys.executable, str(script), plan], env=env, capture_output=True,
                         text=True, check=True)
    trace = json.loads(out.stdout)
    return {"codes": trace["codes"],
            "lines": {(Path(f).name, n) for f, n in trace["lines"]},
            "calls": {(Path(f).name, n) for f, n in trace["calls"]}}


def test_every_public_function_is_run_by_a_command_or_has_a_reason(command_trace):
    assert command_trace["codes"] == [code for _, code in TRACED_SCENARIOS] + [0, 0]
    public = {name: getattr(equiwave, name) for name in equiwave.__all__}
    not_run = {name for name, obj in public.items() if inspect.isfunction(obj)
               and (Path(obj.__code__.co_filename).name, obj.__code__.co_firstlineno)
               not in command_trace["calls"]}
    assert not_run == set(NOT_RUN_BY_A_COMMAND)


# the functions, besides those of NOT_RUN_BY_A_COMMAND, with a statement
# that no traced command reaches, each with the reason it stays
ORIGIN_SERIES = ("the origin series of compute_V, for nodes r < SERIES_RADIUS: a grid "
                 "with R_max < 2e-3 N has one, no traced grid does")
JET_API = "the exported Jet arithmetic: the origin series of compute_V and tests"
PSI_FORM = "the psi form, which only consistency_check runs"
BLOW_UP = "a field past its ceiling: no traced run blows up (tests/test_solver.py)"
LINES_NOT_RUN_BY_A_COMMAND = {
    "admissibility.estimate_h_infinity": "a window with under 10 finite samples of H: a custom "
                                         "base that overflows at large r; no built-in base",
    "admissibility._check_cond_ii": "the failing verdicts of condition ii: no traced base "
                                    "fails it (tests/test_admissibility.py)",
    "errors.BlowUp.__init__": BLOW_UP,
    "errors.BlowUp.__reduce__": BLOW_UP,
    "estimates.dimshift_check": "s = 0, the identity of measures (demo 04, the acceptance "
                                "gate); the command takes s = 1",
    "estimates.RatioReport.passed": "the in-process API (demo 04, the acceptance gate); a "
                                    "command writes the report's reason",
    "estimates.RatioReport.reason": "the worst sample of a failing ratio report: no traced "
                                    "check fails a ratio",
    "jets.Jet.__repr__": "printing a jet",
    "jets.Jet._coerce": JET_API,
    "jets.Jet.__neg__": JET_API,
    "jets.Jet.__sub__": JET_API,
    "jets.Jet.__truediv__": JET_API,
    "jets.apply_into": "a scalar jet of an elementary function that overflows",
    "profiles.check_normalization": "a base that is not smooth at the origin: no traced "
                                    "scenario has one",
    "reduction._origin_jets": ORIGIN_SERIES,
    "reduction._poly": ORIGIN_SERIES,
    "reduction.compute_V": ORIGIN_SERIES,
    "solver.Trajectory.final_state": "the in-process solver API: demo 05 reverses a run from it",
    "solver._Run.__init__": PSI_FORM + ", and its weight a = c / w, which may be negative",
    "solver._Run.bind": PSI_FORM + ", and a custom g g' that is not finite at the field",
    "solver._Run.snapshots": "the velocities that integrate keeps, and initial data past a bound",
    "solver._Run._check": BLOW_UP,
    "spectral._cosine_flow": "modes with nu + lambda < 0, held at frequency 0: no traced "
                             "base has one (tests/test_estimates.py)",
    "spectral.DiscreteRadialOperator._modes_below": "the held modes of _cosine_flow",
    "spectral._chebyshev_coefficients": "a series past 32 terms: the README scenario's grid "
                                        "(N = 4000) takes one, no traced grid does",
}


def _statements(tree):
    """(holder, first, last) of every statement that a call of a function
    of the module runs, but docstrings, raise statements, the bodies of
    except handlers and global or nonlocal declarations.  holder is "f"
    or "Class.f" of the module-level function or method that holds it (a
    nested function belongs to its holder); a line event of the statement
    falls on one of the lines first..last: its own, up to the first line
    of its body for a compound statement, from its first decorator for a
    nested function."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    holders = [(fn.name, fn) for fn in tree.body if isinstance(fn, functions)]
    holders += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                if isinstance(cls, ast.ClassDef) for fn in cls.body if isinstance(fn, functions)]

    def walk(holder, body):
        for i, stmt in enumerate(body):
            docstring = (i == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            if docstring or isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal)):
                continue
            blocks = [getattr(stmt, key, []) for key in ("body", "orelse", "finalbody")]
            inner = [s.lineno for block in blocks for s in block]
            inner += [h.lineno for h in getattr(stmt, "handlers", [])]
            first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
            yield holder, first, min(inner, default=stmt.end_lineno + 1) - 1
            for block in blocks:
                yield from walk(holder, block)

    for holder, fn in holders:
        yield from walk(holder, fn.body)


def test_every_statement_is_run_by_a_command_or_has_a_reason(command_trace):
    # a statement of src/equiwave that no traced command reaches is code
    # that only tests or the in-process API run; a raise, or an except
    # handler, is a failure a command may meet on other input
    listed = {f"{getattr(equiwave, name).__module__.rsplit('.', 1)[1]}.{name}"
              for name in NOT_RUN_BY_A_COMMAND} | set(LINES_NOT_RUN_BY_A_COMMAND)
    unreached = {}
    for path in sorted(Path(equiwave.__file__).parent.glob("*.py")):
        for holder, first, last in _statements(ast.parse(path.read_text())):
            if not any((path.name, line) in command_trace["lines"]
                       for line in range(first, last + 1)):
                unreached.setdefault(f"{path.stem}.{holder}", []).append(first)
    assert {name: lines for name, lines in unreached.items() if name not in listed} == {}
    assert listed - set(unreached) == set()


# the default-valued parameters that no call in src/, demos/ or bench/
# sets, each with the reason it stays an option
OPTIONS_WITHOUT_A_CALLER = {
    "hardy_check.Nq": "the acceptance gate refines the Hardy quadrature (criterion 4)",
    "compute_H.tol": "the acceptance gate sets the H formula check (criterion 3)",
    "emit_closed_forms.tol": "the acceptance gate sets it (criterion 1), and a test "
                             "trips every closed form with it",
    "strichartz_monitor.T": "validation tests; ROADMAP item 8 measures growth in T",
    "strichartz_monitor.n_t": "validation tests; ROADMAP item 8 measures growth in T",
}


def _default_parameters(tree):
    """(name, callee, offset, {parameter: position}) of every module-level
    function and method of a module that has a default-valued parameter:
    name is "f" or "Class.f"; a call of callee reaches it, which is the
    class for __init__; offset is 1 for the bound self or cls of a
    method; position is None for a keyword-only parameter.  Nested
    closures are left out."""
    defs = [(None, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    defs += [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    for owner, fn in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = {a.arg: i for i, a in enumerate(positional) if i >= first}
        params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None})
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        if params:
            name = f"{owner}.{fn.name}" if owner else fn.name
            callee = owner if fn.name == "__init__" else fn.name
            yield name, callee, int(owner is not None and not static), params


def _calls(tree):
    """(callee, positional count, keywords, whether *args is given) of
    every call in a module, a keyword None for a **kwargs.  pickle calls
    the class that a __reduce__ returns with the tuple that follows it,
    so that is a call too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (callee, len(node.args) - starred, {kw.arg for kw in node.keywords},
                   starred)
        elif isinstance(node, ast.ClassDef):
            for ret in (r for fn in node.body if isinstance(fn, ast.FunctionDef)
                        and fn.name == "__reduce__" for r in ast.walk(fn)):
                if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
                        and isinstance(ret.value.elts[1], ast.Tuple)):
                    yield node.name, len(ret.value.elts[1].elts), set(), False


def _options_and_calls():
    """The (name, callee, offset, params) of _default_parameters of every
    module, and the calls of every function name in src/, demos/ and
    bench/ as (positional count, keywords, whether *args is given)."""
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for path in (p for d in ("src", "demos", "bench") for p in sorted((root / d).rglob("*.py"))):
        for callee, *call in _calls(ast.parse(path.read_text())):
            calls.setdefault(callee, []).append(call)
    options = [option for path in MODULES
               for option in _default_parameters(ast.parse(path.read_text()))]
    return options, calls


def test_every_option_is_set_by_a_caller_or_has_a_reason():
    # an option that every caller leaves at its default is a constant; a
    # call reaches every function of its name
    options, calls = _options_and_calls()
    unset = {f"{name}.{param}" for name, callee, offset, params in options
             for param, position in params.items()
             if not any(param in keywords or None in keywords
                        or position is not None and (starred or position - offset < count)
                        for count, keywords, starred in calls.get(callee, []))}
    assert unset == set(OPTIONS_WITHOUT_A_CALLER)


# the defaults that every call in src/, demos/ and bench/ overrides, each
# with the reason it stays a default
DEFAULTS_EVERY_CALL_OVERRIDES = {}


def test_every_default_is_left_in_place_by_a_caller_or_has_a_reason():
    # a default that every call reaching it overrides is no default: the
    # parameter is required; a call with *args or **kwargs may leave it
    options, calls = _options_and_calls()
    overridden = {f"{name}.{param}" for name, callee, offset, params in options
                  if calls.get(callee) for param, position in params.items()
                  if all(not starred and None not in keywords
                         and (param in keywords or position is not None and position - offset < count)
                         for count, keywords, starred in calls[callee])}
    assert overridden == set(DEFAULTS_EVERY_CALL_OVERRIDES)
