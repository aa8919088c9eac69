"""The public names of the package, which of them the commands run, and
static checks of its modules."""

import ast
import dataclasses
import inspect
import json
import pickle
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import equiwave
import equiwave.cli
import equiwave.errors
import equiwave.solver
import equiwave.spectral
from equiwave.scenario import load_scenario
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


def test_only_the_fork_helper_uses_multiprocessing():
    # one fork mechanism, solver._forked_run, which imports multiprocessing
    # in its body, so importing the package loads none of it, and makes
    # the one buffer shared with a child, the one use of mmap
    uses = {"multiprocessing": set(), "mmap": set()}
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
            for module, users in uses.items():
                if any(name.split(".")[0] == module for name in names):
                    users.add(f"{path.name}:{owner.get(id(node))}")
    assert uses == {"multiprocessing": {"solver.py:_forked_run"},
                    "mmap": {"solver.py:_forked_run"}}


def test_force_and_energy_take_one_path_for_both_formulations():
    # the formulation picks the operator and s = b u once, in __init__: the
    # force closure of bind, which every step runs, and the energy never
    # read it, nor a name that bind sets from it (measure may: s = u or w u)
    tree = ast.parse(Path(equiwave.solver.__file__).read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "_Discretization"]
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
    # scipy is reached only through _linalg(), whose routines are the two
    # eigensolvers and LAPACK; LAPACK solves only in the complex shifted
    # solve (resolvent, contour nodes) and the real positive definite
    # solve (the poles of the square roots)
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
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "lapack"):
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
    assert routines == {"eigvalsh_tridiagonal", "eigh_tridiagonal", "lapack"}
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
    "strichartz_trace": "the in-process solver API (demo 05, bench)",
    "consistency_check": "the in-process solver API (demo 05, bench)",
    "check_perturbation": "certifies perturbations of a base; no command yet "
                          "(ROADMAP item 11)",
    "hardy2_check": "the concave-weight Hardy check; no command yet (ROADMAP item 8)",
    "hardy_probe_family": "the Hardy probes of demo 04; no command yet (ROADMAP item 8)",
}

# a small `all` run with every estimate check, once with a built-in target
# and once at even n with a custom target: even n takes the contour of the
# fractional powers, and the custom target is parsed and evaluated by jets
# (dt_factor 0.05 keeps the energy drift of the n = 4 run within the
# evolve bound at N = 300)
TRACED_SCENARIOS = [
    {"manifold": {"kind": "hyperbolic"}, "target": {"kind": "sphere"}, "n": 3},
    {"manifold": {"kind": "hyperbolic"}, "target": {"kind": "custom", "expr": ["sin", "r"]},
     "n": 4},
]


def test_every_public_function_is_run_by_a_command_or_has_a_reason(tmp_path):
    # every command under a function-level profiler; the evolve child of
    # `all` is forked, out of the profiler's sight, so its run also runs
    # here
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    paths = []
    for i, spec in enumerate(TRACED_SCENARIOS):
        paths.append(tmp_path / f"s{i}.json")
        paths[-1].write_text(json.dumps({
            **spec, "k": 1, "grid": {"R_max": 25.0, "N": 300},
            "time": {"T": 2.0, "dt_factor": 0.05, "snap_every": 0.5},
            "checks": ["hardy", "smoothing", "strichartz", "dimshift"]}))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [equiwave.cli.main(["all", "--scenario", str(path),
                                    "--out", str(tmp_path / path.stem)])
                 for path in paths]
        codes.append(equiwave.cli.main(["closed-forms", "--out", str(tmp_path)]))
        for path in paths:
            scenario = load_scenario(path)
            fields = np.empty((scenario.radial_grid.N, scenario.snapshot_count))
            for _ in equiwave.solver._Run(scenario, "phi").snapshots(fields, None):
                pass
    finally:
        sys.setprofile(previous)
    assert codes == [0, 0, 0]
    public = {name: getattr(equiwave, name) for name in equiwave.__all__}
    not_run = {name for name, obj in public.items()
               if inspect.isfunction(obj) and obj.__code__ not in entered}
    assert not_run == set(NOT_RUN_BY_A_COMMAND)


# the default-valued parameters that no call in src/, demos/ or bench/
# sets, each with the reason it stays an option
OPTIONS_WITHOUT_A_CALLER = {
    "hardy_check.Nq": "the acceptance gate refines the Hardy quadrature (criterion 4)",
    "compute_H.tol": "the acceptance gate sets the H formula check (criterion 3)",
    "emit_closed_forms.tol": "the acceptance gate sets it (criterion 1), and a test "
                             "trips every closed form with it",
    "strichartz_monitor.T": "validation tests; ROADMAP item 8 measures growth in T",
    "strichartz_monitor.n_t": "validation tests; ROADMAP item 8 measures growth in T",
    "strichartz_trace.return_partials": "tests compare the CLI's partials against it",
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
DEFAULTS_EVERY_CALL_OVERRIDES = {
    "integrate.spectral_diagnostics": "the README quick start and the tests that compare "
                                      "the CLI's h_half_norm column with an in-process "
                                      "run take the norms by default",
}


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
