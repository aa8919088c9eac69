"""Malformed scenario files fed to the command line: every one must be
a configuration error (exit 2), never a traceback."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from equiwave.cli import main  # noqa: E402
from equiwave.profiles import MAX_EXPR_DEPTH  # noqa: E402

VALID = {
    "name": "fuzz",
    "manifold": {"kind": "hyperbolic"},
    "target": {"kind": "sphere"},
    "n": 3,
    "k": 1,
    "delta0": "search",
    "grid": {"R_max": 25.0, "N": 300},
    "time": {"T": 8.0, "dt_factor": 0.1, "snap_every": 1.0},
    "data": {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    "checks": ["hardy"],
    "seed": 0,
}

_text = st.text(max_size=8)
_nonfinite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_fraction = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: x != int(x))
_list = st.lists(st.integers(), min_size=1, max_size=2)
_object = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_scalar = st.one_of(st.booleans(), st.none(), _list)

# values of the wrong type for each kind of field
WRONG = {
    "integer": st.one_of(_text, _fraction, _nonfinite, _scalar, _object),
    "number": st.one_of(_text, _nonfinite, _scalar, _object),
    "object": st.one_of(_text, st.integers(), st.floats(), _scalar),
    "string": st.one_of(st.integers(), st.floats(), _scalar, _object),
    "checks": st.one_of(_text, st.integers(), _object, st.lists(st.integers(), min_size=1)),
    "delta0": st.one_of(_text.filter(lambda x: x != "search"), _nonfinite, _scalar,
                        _object),
}
FIELDS = {
    ("name",): "string",
    ("n",): "integer",
    ("k",): "integer",
    ("seed",): "integer",
    ("delta0",): "delta0",
    ("checks",): "checks",
    **{(key,): "object" for key in ("manifold", "target", "grid", "time", "data")},
    ("manifold", "kind"): "string",
    ("grid", "N"): "integer",
    ("grid", "R_max"): "number",
    **{("time", key): "number" for key in ("T", "dt_factor", "snap_every")},
    **{("data", key): "number"
       for key in ("amplitude", "width", "center", "velocity_amplitude")},
}


@st.composite
def malformed_scenario(draw):
    payload = json.loads(json.dumps(VALID))
    path = draw(st.sampled_from(sorted(FIELDS)))
    value = draw(WRONG[FIELDS[path]])
    spec = payload
    for key in path[:-1]:
        spec = spec[key]
    spec[path[-1]] = value
    return json.dumps(payload)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@hypothesis.given(text=st.one_of(malformed_scenario(), st.text(max_size=40)))
# an integer that no float holds, which math.isfinite cannot take
@hypothesis.example(text=json.dumps({**VALID, "grid": {"R_max": 10**400, "N": 300}}))
def test_malformed_scenario_exits_2(workdir, text):
    path = workdir / "scenario.json"
    path.write_text(text)
    assert main(["verify", "--scenario", str(path), "--out", str(workdir)]) == 2


@hypothesis.given(blob=st.binary(max_size=40))
def test_unreadable_scenario_exits_2(workdir, blob):
    path = workdir / "scenario.json"
    path.write_bytes(blob)
    assert main(["verify", "--scenario", str(path), "--out", str(workdir)]) == 2


NAN, INF = float("nan"), float("inf")

# operators with the operand counts they must not take
_WRONG_OPERANDS = {"+": [0], "*": [0], "/": [0, 1, 3], "pow": [0, 1, 3],
                   "cutoff": [0, 2], "sqrt_cutoff": [0, 2],
                   **{op: [0, 2, 3] for op in ("exp", "sin", "sinh", "cosh", "sqrt")}}


@st.composite
def malformed_expression(draw):
    """A node with a wrong operand count, under up to two valid nodes."""
    op = draw(st.sampled_from(sorted(_WRONG_OPERANDS)))
    tree = [op] + ["r"] * draw(st.sampled_from(_WRONG_OPERANDS[op]))
    for _ in range(draw(st.integers(0, 2))):
        tree = draw(st.sampled_from([["+", "r", tree], ["*", tree, 2.0], ["sin", tree],
                                     ["/", tree, ["cosh", "r"]]]))
    return tree


@hypothesis.given(expr=malformed_expression(), where=st.sampled_from(["manifold", "target"]))
@hypothesis.example(expr=["+"], where="manifold")
@hypothesis.example(expr=["*"], where="manifold")
@hypothesis.example(expr=["+"], where="target")
@hypothesis.example(expr=["sin", "r", "junk"], where="manifold")
@hypothesis.example(expr=["sin", "r", "junk"], where="target")
@hypothesis.example(expr=["*", "r", ["pow", ["+", 1, "r"], "x"]], where="manifold")
@hypothesis.example(expr=["*", "r", ["pow", ["+", 1, "r"], "x"]], where="target")
# a JSON boolean as a constant, an exponent or an eps: each passed as 0 or 1
@hypothesis.example(expr=["+", "r", ["*", False, ["pow", "r", 2]]], where="manifold")
@hypothesis.example(expr=["pow", ["sinh", "r"], True], where="manifold")
@hypothesis.example(expr=["sin", ["*", True, "r"]], where="target")
@hypothesis.example(expr=["pow", ["sin", "r"], True], where="target")
@hypothesis.example(expr=["*", "r", ["+", 1.0, ["sqrt_cutoff", True]]], where="manifold")
# Python's json reads NaN and Infinity: neither is a constant, exponent or eps
@hypothesis.example(expr=["*", NAN, ["sin", "r"]], where="manifold")
@hypothesis.example(expr=["*", NAN, ["sin", "r"]], where="target")
@hypothesis.example(expr=["+", ["sin", "r"], ["*", INF, ["pow", "r", 3]]], where="manifold")
@hypothesis.example(expr=["+", ["sin", "r"], ["*", INF, ["pow", "r", 3]]], where="target")
@hypothesis.example(expr=["pow", ["sin", "r"], NAN], where="target")
@hypothesis.example(expr=["*", "r", ["+", 1.0, ["sqrt_cutoff", INF]]], where="manifold")
def test_malformed_expression_exits_2(workdir, expr, where):
    payload = json.loads(json.dumps(VALID))
    payload[where] = {"kind": "custom", "expr": expr}
    path = workdir / "scenario.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--scenario", str(path), "--out", str(workdir)]) == 2


@pytest.mark.parametrize("where, depth", [("manifold", 500), ("target", 500), ("manifold", 3000)],
                         ids=["manifold", "target", "json"])
def test_too_deep_expression_exits_2(workdir, capsys, where, depth):
    # ["+", ["+", ... "r"]] 500 deep, h = r or g = s, ran Expr.jet out of
    # Python's stack (exit 1, a RecursionError traceback; 450 deep passed).
    # 3,000 deep, it runs json's decoder out of the stack first, in a file
    # that is valid JSON; its text is built as a string, because json.dumps
    # of the tree runs out of the stack too
    payload = json.loads(json.dumps(VALID))
    payload[where] = {"kind": "custom", "expr": "TREE"}
    tree = '["+", ' * (depth - 1) + '"r"' + "]" * (depth - 1)
    path = workdir / "scenario.json"
    path.write_text(json.dumps(payload).replace('"TREE"', tree))
    assert main(["verify", "--scenario", str(path), "--out", str(workdir)]) == 2
    reason = (f"bad {where} spec: expression is deeper than {MAX_EXPR_DEPTH} levels"
              if depth == 500 else "scenario file nests too deeply to decode; an "
              f"expression may be at most {MAX_EXPR_DEPTH} levels deep")
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
