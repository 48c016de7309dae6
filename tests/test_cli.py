import argparse
import contextlib
import io
import json
import pathlib
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alexlab import alexinv, cli, fpgroup, laurent, norms, obstruct, torusgeo
from alexlab._value import Value
from alexlab.errors import ParseError

TREFOIL_FP = "gens a b\nrel a^2 b^-3\n"
SOL_FP = (
    "gens x y t\n"
    "rel x y x^-1 y^-1\n"
    "rel t x t^-1 y^-1 x^-2\n"
    "rel t y t^-1 y^-1 x^-1\n"
)


@pytest.fixture
def trefoil_file(tmp_path):
    f = tmp_path / "trefoil.fp"
    f.write_text(TREFOIL_FP)
    return str(f)


@pytest.fixture
def sol_file(tmp_path):
    f = tmp_path / "solbundle.fp"
    f.write_text(SOL_FP)
    return str(f)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_delta_trefoil(capsys, trefoil_file):
    code, out, err = run_cli(capsys, "delta", trefoil_file, "--k", "1")
    assert (code, out) == (0, "t^2 - t + 1\n")


def test_missing_file_exits_1(capsys):
    code, out, err = run_cli(capsys, "delta", "missing.fp", "--k", "1")
    assert code == 1
    assert not out
    assert "missing.fp" in err


def test_bad_usage_exits_1(capsys):
    code, out, err = run_cli(capsys, "delta")
    assert code == 1


def test_qp_verdict_sol(capsys, sol_file):
    code, out, err = run_cli(capsys, "test", "qp", sol_file)
    assert code == 0
    assert "verdict: OBSTRUCTED" in out
    assert "witness: non-cyclotomic factor t^2 - 3*t + 1" in out


def test_machine_output_is_byte_stable(capsys, sol_file):
    outputs = set()
    for _ in range(3):
        code, out, err = run_cli(capsys, "test", "qp", sol_file, "--machine")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "OBSTRUCTED"


def test_abelianize_machine_golden(capsys, trefoil_file):
    code, out, err = run_cli(capsys, "abelianize", trefoil_file, "--machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {
        "generators": ["a", "b"],
        "b1": 1,
        "torsion": [],
        "images": [[3], [2]],
    }
    # the serialization itself is deterministic and compact
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_delta_machine_round_trip(capsys, trefoil_file):
    code, out, err = run_cli(capsys, "delta", trefoil_file, "--k", "1", "--machine")
    doc = json.loads(out)
    terms = doc["result"]["delta"]["terms"]
    assert terms == [{"e": [0], "c": 1}, {"e": [1], "c": -1}, {"e": [2], "c": 1}]


def test_thickness_and_norm(capsys, sol_file):
    code, out, _ = run_cli(capsys, "thickness", sol_file)
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "norm", sol_file, "--phi", "1")
    assert (code, out) == (0, "2\n")


def test_ball(capsys, sol_file):
    code, out, _ = run_cli(capsys, "ball", sol_file)
    assert code == 0
    assert out == "(-2)\n(2)\n"


def test_cv(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "cv", trefoil_file, "--rho", "1/6", "--k", "2")
    assert code == 0
    assert out == "dim: 1\nV_1: yes\nV_2: no\n"
    code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "1/6,0")
    assert code == 3  # wrong character length
    code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "0,0")
    assert (code, out) == (3, "")  # the trivial character is checked too
    assert "character has 2 entries but b1 = 1" in err
    code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "1/6", "--k", "-1")
    assert (code, out) == (3, "")
    assert "kmax" in err


def test_cv_negative_rho_needs_the_equals_form(capsys, trefoil_file):
    # A separate "-1/6" is read as an option, so the help text says to
    # write --rho=-1/6; rationals are taken mod 1, so it is 5/6.
    code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "-1/6")
    assert (code, out) == (1, "")
    assert "expected one argument" in err
    code, joined, _ = run_cli(capsys, "cv", trefoil_file, "--rho=-1/6", "--machine")
    assert code == 0
    code, shifted, _ = run_cli(capsys, "cv", trefoil_file, "--rho", "5/6", "--machine")
    assert code == 0
    assert joined == shifted
    assert json.loads(joined)["rho"] == ["5/6"]


def test_tori_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "tori",
        "intersect",
        "--t1",
        "n=2;rows=(1,0);q=(1/2,0)",
        "--t2",
        "n=2;rows=(0,1)",
    )
    assert code == 0
    assert out == "meets: yes\ndim: 0\nparallel: no\n"
    code, out, err = run_cli(
        capsys, "tori", "intersect", "--t1", "n=2;rows=(1,0)", "--t2", "n=3"
    )
    assert code == 3  # ambient mismatch
    code, out, err = run_cli(
        capsys, "tori", "intersect", "--t1", "rows=(1,0)", "--t2", "n=2"
    )
    assert code == 1  # missing n


def test_tori_cli_same_torus_two_ways_is_parallel(capsys):
    # The same equation lattice from two generating sets: parallel compares
    # saturated lattices, so it needs a canonical Hermite basis.
    code, out, _ = run_cli(
        capsys,
        "tori",
        "intersect",
        "--t1",
        "n=5;rows=(0,-2,1,1,0),(-2,-1,-2,-2,2),(-2,0,0,-1,-1)",
        "--t2",
        "n=5;rows=(0,-2,1,1,0),(-2,-3,-1,-1,2),(-2,0,0,-1,-1)",
    )
    assert code == 0
    assert out == "meets: yes\ndim: 2\nparallel: yes\n"


def test_torus_rank_is_checked_before_the_translate_is_built(capsys):
    # A negative rank is a parse error and one past the bound a limit, each
    # found before the n translate entries are made.
    cases = (("-1", 1, "error: bad ambient rank"), ("10001", 2, "limit exceeded: "))
    for rank, code, first in cases:
        start = time.perf_counter()
        got, out, err = run_cli(capsys, "tori", "intersect", "--t1", "n=" + rank, "--t2", "n=1")
        assert time.perf_counter() - start < 1
        assert (got, out, err.count("\n")) == (code, "", 1), err
        assert err.startswith(first), err


def test_build_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "torusknot", "--p", "2", "--q", "3")
    assert code == 0
    assert out == TREFOIL_FP
    p = fpgroup.parse_presentation(out)
    assert fpgroup.serialize_presentation(p) == out

    code, out, _ = run_cli(
        capsys, "build", "freebycyclic", "--rank", "2",
        "--image", "x1 x2", "--image", "x2 x1 x2",
    )
    assert code == 0
    f = tmp_path / "fbc.fp"
    f.write_text(out)
    code2, out2, _ = run_cli(capsys, "delta", str(f), "--k", "1")
    assert (code2, out2) == (0, "t^2 - 3*t + 1\n")

    code, out, err = run_cli(capsys, "build", "torusbundle", "--matrix", "2,0,0,2")
    assert code == 3  # non-unimodular


def test_build_image_count_is_checked_before_the_generator_names(capsys):
    """A wrong --image count is a usage error, found before a name is made
    for each of the --rank generators."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "build", "freebycyclic", "--rank", "1000000", "--image", "x1"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert "(1 != 1000000)" in err
    assert peak < 1 << 20, peak


def test_sum_cli(capsys, tmp_path, sol_file):
    rp3 = tmp_path / "rp3.fp"
    rp3.write_text("gens x\nrel x^2\n")
    code, out, _ = run_cli(capsys, "sum", sol_file, str(rp3))
    assert code == 0
    assert "product: b1 1, k0 1, delta 2*t^2 - 6*t + 2, thickness 1" in out
    assert "thickness additive: yes" in out
    assert "qp verdict: OBSTRUCTED" in out
    code, out, err = run_cli(capsys, "sum", sol_file, str(rp3), "--kmax", "-1")
    assert (code, out) == (3, "")
    assert "kmax" in err


def test_mcmullen_cli(capsys, tmp_path):
    from corpus import WHITEHEAD

    wh = tmp_path / "wh.fp"
    wh.write_text(fpgroup.serialize_presentation(WHITEHEAD.presentation))
    data = tmp_path / "thurston.dat"
    data.write_text("phi 1 0 thurston 1 fibered 1\nphi 1 1 thurston 2 fibered 1\n")
    code, out, _ = run_cli(capsys, "mcmullen", str(wh), "--data", str(data))
    assert code == 0
    assert out.endswith("all: PASS\n")
    # a failing datum flips the verdict
    data.write_text("phi 1 0 thurston 0 fibered 0\n")
    code, out, _ = run_cli(capsys, "mcmullen", str(wh), "--data", str(data))
    assert code == 0
    assert "FAIL" in out


def test_machine_numeric_fields_round_trip(capsys, tmp_path):
    from fractions import Fraction

    from corpus import WHITEHEAD

    wh = tmp_path / "wh.fp"
    wh.write_text(fpgroup.serialize_presentation(WHITEHEAD.presentation))
    code, out, _ = run_cli(capsys, "ball", str(wh), "--machine")
    assert code == 0
    doc = json.loads(out)
    verts = {tuple(Fraction(x) for x in v) for v in doc["result"]["vertices"]}
    from alexlab import alexinv, norms

    _, delta = alexinv.first_order(fpgroup.fox_matrix(WHITEHEAD.presentation))
    assert verts == set(norms.support_polytope(delta).vertices)

    code, out, _ = run_cli(capsys, "cv", str(wh), "--rho", "1/2,1/2", "--machine")
    doc = json.loads(out)
    assert [Fraction(x) for x in doc["rho"]] == [Fraction(1, 2), Fraction(1, 2)]
    assert isinstance(doc["result"]["dim"], int)


THURSTON_DAT = (
    "phi 1 0 thurston 1 fibered 1\n"
    "phi 1 1 thurston 2 fibered 1\n"
    "phi 0 1 thurston 0 fibered 0\n"
)

ESCAPED_NAME = 'tr\u00e9foil \U0001d54b "q" \\ \u2603.fp'

# `.json` goldens are --machine documents, `.txt` goldens human output.
GOLDENS = {
    "delta_trefoil.json": ["delta", "trefoil.fp", "--k", "1", "--machine"],
    "test_qp_solbundle.json": ["test", "qp", "solbundle.fp", "--machine"],
    "cv_trefoil.json": ["cv", "trefoil.fp", "--rho", "1/6", "--k", "2", "--machine"],
    "tori_intersect.json": [
        "tori", "intersect",
        "--t1", "n=2;rows=(1,0);q=(1/2,0)",
        "--t2", "n=2;rows=(0,1)",
        "--machine",
    ],
    # Dependent rows, and a lattice that is not saturated: the Smith path
    # of `saturate`.
    "tori_intersect_smith.json": [
        "tori", "intersect",
        "--t1", "n=3;rows=(2,4,6),(1,2,3);q=(1/2,0,0)",
        "--t2", "n=3;rows=(0,0,2)",
        "--machine",
    ],
    "sum_sol_rp3.json": ["sum", "solbundle.fp", "rp3.fp", "--machine"],
    "abelianize_trefoil.json": ["abelianize", "trefoil.fp", "--machine"],
    "thickness_whitehead.json": ["thickness", "wh.fp", "--machine"],
    "norm_whitehead.json": ["norm", "wh.fp", "--phi", "1,1", "--machine"],
    "ball_whitehead.json": ["ball", "wh.fp", "--machine"],
    "test_kahler_solbundle.json": ["test", "kahler", "solbundle.fp", "--machine"],
    "build_torusknot.json": ["build", "torusknot", "--p", "2", "--q", "3", "--machine"],
    "build_torusbundle.json": ["build", "torusbundle", "--matrix", "2,1,1,1", "--machine"],
    "build_freebycyclic.json": [
        "build", "freebycyclic", "--rank", "2",
        "--image", "x1 x2", "--image", "x2 x1 x2",
        "--machine",
    ],
    "mcmullen_whitehead.json": ["mcmullen", "wh.fp", "--data", "thurston.dat", "--machine"],
    "test_qp_solbundle.txt": ["test", "qp", "solbundle.fp"],
    "sum_sol_rp3.txt": ["sum", "solbundle.fp", "rp3.fp"],
    "mcmullen_whitehead.txt": ["mcmullen", "wh.fp", "--data", "thurston.dat"],
    # A fibered class whose Alexander norm is below its Thurston value.
    "mcmullen_fibered_fail.json": ["mcmullen", "wh.fp", "--data", "fibered.dat", "--machine"],
    "mcmullen_fibered_fail.txt": ["mcmullen", "wh.fp", "--data", "fibered.dat"],
    "abelianize_trefoil.txt": ["abelianize", "trefoil.fp"],
    # A 300-term univariate Delta, a multivariate one with b1 = 3, and a
    # file name that needs JSON escaping (non-ASCII, astral, quote, backslash).
    "delta_long_syllables.json": ["delta", "long.fp", "--k", "1", "--machine"],
    "thickness_three_trefoils.json": ["thickness", "three_trefoils.fp", "--machine"],
    "cv_escaped_name.json": ["cv", ESCAPED_NAME, "--rho", "1/6", "--machine"],
}


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    """Every input file of `GOLDENS`, in a fresh working directory."""
    from corpus import WHITEHEAD

    (tmp_path / "trefoil.fp").write_text(TREFOIL_FP)
    (tmp_path / "solbundle.fp").write_text(SOL_FP)
    (tmp_path / "rp3.fp").write_text("gens x\nrel x^2\n")
    (tmp_path / "wh.fp").write_text(fpgroup.serialize_presentation(WHITEHEAD.presentation))
    (tmp_path / "thurston.dat").write_text(THURSTON_DAT)
    (tmp_path / "fibered.dat").write_text("phi 1 1 thurston 3 fibered 1\n")
    (tmp_path / "long.fp").write_text("gens a b\nrel a^300 b^-300\n")
    (tmp_path / "three_trefoils.fp").write_text(
        "gens a b c d e f\nrel a^2 b^-3\nrel c^2 d^-3\nrel e^2 f^-3\n"
    )
    (tmp_path / ESCAPED_NAME).write_text(TREFOIL_FP)
    monkeypatch.chdir(tmp_path)


def _golden(name: str) -> str:
    return (pathlib.Path(__file__).parent / "goldens" / name).read_text()


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_machine_goldens_byte_equal(capsys, golden_inputs, golden):
    code, out, err = run_cli(capsys, *GOLDENS[golden])
    assert code == 0
    assert out == _golden(golden)


def test_machine_goldens_build_no_document_tree(capsys, golden_inputs, monkeypatch):
    # --machine text is written straight from the reports: neither a
    # polynomial's `to_doc` nor `json.dumps` is called on the way.
    def refuse(*args, **kwargs):
        raise AssertionError("document tree built")

    monkeypatch.setattr(laurent.LaurentPoly, "to_doc", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    for golden in sorted(g for g in GOLDENS if g.endswith(".json")):
        code, out, err = run_cli(capsys, *GOLDENS[golden])
        assert (code, out, err) == (0, _golden(golden), ""), golden


# -- the --machine encoder against json.dumps ---------------------------------------


def _reference_doc(value):
    """The document of a result as `cli._doc` built it before the direct
    encoder: a LaurentPoly is its `to_doc()`, any other `Value` a dict of
    the fields in its `_fields`, a tuple or list a list, a Fraction its str;
    dicts, which the commands built around `_doc`'s results, are walked as
    well."""
    if isinstance(value, laurent.LaurentPoly):
        return value.to_doc()
    if isinstance(value, Value):
        return {name: _reference_doc(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return {k: _reference_doc(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_reference_doc(x) for x in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


# Control characters, quotes and backslashes (Po), lone surrogates (Cs),
# astral and other non-ASCII letters and symbols, besides plain text.
_TEXT = st.one_of(st.text(), st.text(st.characters(categories=["Cc", "Cs", "Po", "Lo", "So"])))
_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)


@st.composite
def _polys(draw):
    """LaurentPoly in 0..4 variables: zero, constants, signed coefficients;
    univariate exponents of any size, multivariate ones within the key range."""
    n = draw(st.integers(0, 4))
    bound = 2**40 if n == 1 else 2**30
    exps = st.tuples(*[st.integers(-bound, bound)] * n)
    coeffs = st.one_of(st.integers(-3, 3), _INTS)
    return laurent.LaurentPoly(n, draw(st.lists(st.tuples(exps, coeffs), max_size=6)))


_REPORTS = (
    obstruct.PerKFinding,
    obstruct.ObstructionReport,
    obstruct.FactorSummary,
    alexinv.CvReport,
    norms.NormBall,
    norms.CohomologyClass,
    torusgeo.IntersectionReport,
    fpgroup.AbelianizationData,
)


def _reports(children):
    """Report classes, each field a subtree."""
    return st.one_of([st.builds(cls, *[children] * len(cls._fields)) for cls in _REPORTS])


_LEAVES = st.one_of(
    _TEXT, _INTS, st.booleans(), st.none(), st.fractions(), _polys(),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        _reports(children),
    ),
    max_leaves=15,
)


@settings(max_examples=100, deadline=None)
@given(_TREES)
@example({"b": True, "a": [False, None], "\u00e9\"\\": 1})
@example(laurent.LaurentPoly(0, [((), -5)]))
@example(laurent.LaurentPoly(2, [((3, -1), 2), ((0, 7), -1)]))
def test_emit_matches_json_dumps_of_the_reference_document(value):
    want = json.dumps(_reference_doc(value), sort_keys=True, separators=(",", ":")) + "\n"
    assert cli._emit(value) == want


def test_emit_refuses_what_json_cannot_write():
    for value in (1.5, object(), {1: 2}, {"a": {3, 4}}):
        with pytest.raises(TypeError):
            cli._emit(value)


# One relator in three generators: a 1 x 3 block of rank 1, whose Delta^1
# comes from one minor with no gcd, but whose Delta^2 is a gcd of entries.
GCD_FP = "gens a b c\nrel a^2 b^-3 c^2 b\n"


@pytest.fixture
def gcd_file(tmp_path):
    f = tmp_path / "gcd.fp"
    f.write_text(GCD_FP)
    return str(f)


def test_limit_exit_code(capsys, gcd_file, monkeypatch):
    monkeypatch.setenv("ALEXLAB_MAX_VARS", "0")
    code, out, err = run_cli(capsys, "delta", gcd_file, "--k", "2")
    assert code == 2
    assert "limit" in err.lower()


def test_gcd_cap_exit_code(capsys, gcd_file, monkeypatch):
    # A gcd whose candidates never pass the division check stops at the cap
    # on its evaluation points: exit 2, not an internal error or a hang.
    # Keys as in `laurent._heu_gcd`: the lift of the constant slice (key 0)
    # has keys 1 and 0 for the new last variable to the powers 1 and 0.
    def non_divisor(h, xi):
        return {1: 1, 0: 3 * xi + 1}

    monkeypatch.setattr(laurent, "_lift_last", non_divisor)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta", gcd_file, "--k", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")


# b = a^100, c = b^100, .., f = e^100, so f maps to 10^10 times a's image.
TOWER_FP = "gens a b c d e f\nrel b a^-100\nrel c b^-100\nrel d c^-100\nrel e d^-100\nrel f e^-100\n"


def test_exponent_beyond_key_range_exit_code(capsys, tmp_path):
    # With g commuting with f, b1 = 2 and the Fox entries have exponents
    # near 10^10, past the 2^31 that two or more variables allow: exit 2
    # at once, not a hang or a wrapped exponent.
    fp = tmp_path / "tower7.fp"
    fp.write_text(TOWER_FP.replace("gens a b c d e f", "gens a b c d e f g") + "rel g f g^-1 f^-1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta", str(fp), "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")


def test_univariate_exponents_have_no_key_bound(capsys, tmp_path):
    # The same tower without g has b1 = 1: univariate keys are the
    # exponents themselves, so 10^10 is fine.
    fp = tmp_path / "tower6.fp"
    fp.write_text(TOWER_FP)
    code, out, err = run_cli(capsys, "delta", str(fp), "--k", "1", "--machine")
    assert code == 0
    assert json.loads(out)["result"] == {"delta": {"nvars": 1, "terms": [{"c": 1, "e": [0]}]}, "text": "1"}


def test_letter_budget_exit_code(capsys, tmp_path):
    big = tmp_path / "big.fp"
    big.write_text("gens a\nrel a^99999999999999\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta", str(big), "--k", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "ALEXLAB_MAX_LETTERS" in err


def test_cv_order_limit_exit_code(capsys, trefoil_file):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "1/30030")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "30030" in err
    for m in (60, 210, 600, 2310):
        code, out, err = run_cli(capsys, "cv", trefoil_file, "--rho", "1/%d" % m)
        assert (code, err) == (0, ""), m
        assert out.startswith("dim: ")


def test_listing_bound_exit_code(capsys, trefoil_file):
    # Each listing grows with an argv number of a few bytes: test --kmax
    # 10^6 took 29.5 s and 884 MB, and cv --k 10^7 wrote 60 MB.
    argvs = (
        ["test", "qp", trefoil_file, "--kmax", "1000000"],
        ["test", "kahler", trefoil_file, "--kmax", "1000000", "--machine"],
        ["sum", trefoil_file, trefoil_file, "--kmax", "1000000"],
        ["cv", trefoil_file, "--rho", "1/6", "--k", "10000000"],
        ["cv", trefoil_file, "--rho", "0", "--k", "10000000", "--machine"],
    )
    for argv in argvs:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith("limit exceeded: "), argv
    top = str(alexinv.MAX_LISTED_K)
    for argv in (
        ["test", "qp", trefoil_file, "--kmax", top],
        ["cv", trefoil_file, "--rho", "1/6", "--k", top],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_rational_with_exponent_exit_code(capsys, trefoil_file):
    # Fraction("1e10000000") expands to ten million digits (about 14 s), so
    # an exponent is a parse error at once, in --rho and in a torus translate.
    for argv in (
        ["cv", trefoil_file, "--rho", "1e1000"],
        ["tori", "intersect", "--t1", "n=1;q=(1e1000)", "--t2", "n=1"],
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1, argv


def test_internal_error_exit_code(capsys, trefoil_file, monkeypatch):
    def broken(args):
        raise RuntimeError("inexact division")

    monkeypatch.setattr(cli, "_cmd_delta", broken)
    code, out, err = run_cli(capsys, "delta", trefoil_file, "--k", "1")
    assert code == 4
    assert not out
    assert err == "internal error: RuntimeError: inexact division\n"
    assert "Traceback" not in err


def test_parse_error_in_fp_file(capsys, tmp_path):
    bad = tmp_path / "bad.fp"
    bad.write_text("rel a\n")
    code, out, err = run_cli(capsys, "abelianize", str(bad))
    assert code == 1
    assert "gens" in err


def test_non_utf8_file_exits_1(capsys, tmp_path, trefoil_file):
    bad = tmp_path / "bad.fp"
    bad.write_bytes(b"gens a\nrel a\xff\n")
    code, out, err = run_cli(capsys, "abelianize", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read %s: " % bad)
    assert "0xff" in err

    data = tmp_path / "bad.dat"
    data.write_bytes(b"phi 1 0 thurston 1 fibered 1\xff\n")
    code, out, err = run_cli(capsys, "mcmullen", trefoil_file, "--data", str(data))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read %s: " % data)


# -- help and usage errors ----------------------------------------------------------

COMMANDS = (
    "abelianize", "delta", "thickness", "norm", "ball", "cv",
    "test", "sum", "tori", "build", "mcmullen",
)

PARSER_ARGVS = (
    [["-h"]]
    + [[c, "-h"] for c in COMMANDS]
    + [["tori", "intersect", "-h"]]
    + [["build", family, "-h"] for family in ("torusbundle", "torusknot", "freebycyclic")]
    + [
        [],  # no arguments
        ["frobnicate", "trefoil.fp"],  # unknown command
        ["--machine", "cv", "trefoil.fp"],  # leading option
        ["delta", "--k", "1"],  # missing positional
        ["cv", "trefoil.fp"],  # missing --rho
        ["delta", "trefoil.fp", "--k", "one"],  # non-integer --k
        ["test", "hodge", "trefoil.fp"],  # bad choice
        ["ball", "trefoil.fp", "extra"],  # extra argument
        ["tori"],
        ["build"],
        ["build", "torusknot", "--p", "2"],
        ["cv", "trefoil.fp", "--rho", "-1/6"],
    ]
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_lazy_parser_matches_full_tree(capsys, monkeypatch, tmp_path, argv):
    # A help argv prints the usage to stdout and exits 0; every other argv
    # here is one error line on stderr with exit 1.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trefoil.fp").write_text(TREFOIL_FP)
    code, out, err = run_cli(capsys, *argv)
    if "-h" in argv:  # run returns the help's exit code
        assert (code, err) == (0, "") and out.startswith("usage: alexlab")
        assert argv != ["-h"] or all(c in out for c in COMMANDS)
    else:
        assert (code, out) == (1, "") and err.startswith("error: ")
        assert err.count("\n") == 1


def test_cv_abbreviation_prints_as_the_full_name(capsys, trefoil_file):
    plain = run_cli(capsys, "cv", trefoil_file, "--rho", "1/6")
    assert plain == (0, "dim: 1\nV_1: yes\n", "")
    assert run_cli(capsys, "cv", trefoil_file, "--rh", "1/6") == plain


# -- the reader against an argparse reference ---------------------------------------


class _Refusing(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _add_spec(parser, spec, func=None):
    """Add a spec of `cli._COMMANDS` to an argparse parser: a nest as
    sub-parsers, a leaf as its arguments, --machine and `func`."""
    _, middle, table = spec
    if isinstance(middle, str):
        sub = parser.add_subparsers(dest=middle, required=True)
        for name, child in table.items():
            _add_spec(sub.add_parser(name), child, func or getattr(cli, "_cmd_" + name))
        return
    for dest, kw in middle.items():
        parser.add_argument(dest, **kw)
    for key, kw in table.items():
        parser.add_argument("--" + key, **kw)
    parser.add_argument("--machine", action="store_true")
    parser.set_defaults(func=func)


# The reference implementation: the argparse parser that `_COMMANDS` describes.
REFERENCE = _Refusing(prog="alexlab")
_add_spec(REFERENCE, ("", "command", cli._COMMANDS))


def _leaves(table, path=()):
    for name, spec in table.items():
        if isinstance(spec[1], str):
            yield from _leaves(spec[2], path + (name,))
        else:
            yield path + (name,), spec


# Every command that runs, by its words: `sum`, `tori intersect` and the
# `build` families too.
LEAVES = dict(_leaves(cli._COMMANDS))
NESTS = [(name,) for name, spec in cli._COMMANDS.items() if isinstance(spec[1], str)]


def _options_where(test):
    return [path for path, spec in LEAVES.items() if any(test(k, kw) for k, kw in spec[2].items())]


# Each way to spoil a valid argv, with the commands it can spoil (default:
# every command, nests and an unknown one too).
MUTATIONS = (
    "abbreviation", "repeat", "help", "double_dash", "single_dash", "unknown_option",
    "negative", "empty_value", "no_value", "machine_value",
    "non_integer", "bad_choice", "drop_positional", "extra_positional", "drop_required",
)
TARGETS = {
    "abbreviation": _options_where(lambda key, kw: len(key) > 1),
    "repeat": _options_where(lambda key, kw: True),
    "non_integer": _options_where(lambda key, kw: kw.get("type") is int),
    "bad_choice": [("test",)],
    "drop_required": _options_where(lambda key, kw: kw.get("required")),
}

# Where the reader parts from argparse on purpose, by name: what argparse
# gives, then what the reader gives.
DEVIATIONS = {
    # `sum`'s files with an option between them (`sum a.fp --kmax 2 b.fp`):
    # argparse takes the first run of files and refuses the rest; the reader
    # takes every file.
    "sum_split_files": ("error", "namespace"),
    # `--` as the last word, right after an option or its value
    # (`delta g.fp --k 1 --`): argparse refuses that `--`; the reader ends
    # the options there.
    "final_double_dash": ("error", "namespace"),
    # -h after an option that a nest does not have (`tori --machine -h`):
    # argparse prints the help; the reader refuses the option.
    "help_after_unknown_option": ("help", "error"),
}


def _option_unit(key, kw, draw):
    """--key with a drawn value, as [--key, value] or [--key=value]."""
    if kw.get("type") is int:
        value = str(draw(st.integers(0, 12)))
    else:
        value = draw(st.sampled_from(["1/6", "1,0", "5/6", "x", "0"]))
    return ["--%s=%s" % (key, value)] if draw(st.booleans()) else ["--" + key, value]


def _units(spec, draw):
    """A valid argv for a leaf `spec` as units (lists of tokens): the
    options, each as [--key, value] or [--key=value], and the positionals."""
    _, positionals, options = spec
    pos = []
    for kw in positionals.values():
        if "choices" in kw:
            pos.append([draw(st.sampled_from(kw["choices"]))])
        else:
            files = draw(st.lists(st.sampled_from(["g.fp", "a b.fp", "", "7"]), min_size=1, max_size=2))
            pos.extend([f] for f in (files if "nargs" in kw else files[:1]))
    opts = [
        _option_unit(key, kw, draw)
        for key, kw in options.items() if kw.get("required") or draw(st.booleans())
    ]
    if draw(st.booleans()):
        opts.append(["--machine"])
    return opts, pos


def _key(unit):
    return unit[0][2:].partition("=")[0]


def _mutate(name, options, opts, pos, draw):
    """Apply mutation `name` to the units in place; returns the tokens that
    go after every unit (an option left without its value)."""
    valued = [i for i, u in enumerate(opts) if _key(u) != "machine"]
    if name in ("negative", "empty_value", "no_value"):
        # Spoil the value of a given option, or use an unknown one.
        key = _key(opts.pop(draw(st.sampled_from(valued)))) if valued else "k"
        if name == "no_value":
            return ["--" + key]
        opts.append(["--%s=" % key] if name == "empty_value" else ["--" + key, draw(st.sampled_from(["-1", "-1/6"]))])
    elif name == "abbreviation":
        key = draw(st.sampled_from([k for k in options if len(k) > 1] + ["machine"]))
        units = [u for u in opts if _key(u) == key]
        if not units:
            units = [["--" + key] + (["1"] if key != "machine" else [])]
            opts.extend(units)
        short = key[: draw(st.integers(1, len(key) - 1))]
        if short not in options:  # not itself an exact option
            units[0][0] = "--" + short + units[0][0][2 + len(key):]
    elif name == "repeat":
        # An option given again, with a value of its own: the last one counts.
        key = draw(st.sampled_from(sorted(options) + ["machine"]))
        opts.append(["--machine"] if key == "machine" else _option_unit(key, options[key], draw))
    elif name == "non_integer":
        key = draw(st.sampled_from([k for k, kw in options.items() if kw.get("type") is int]))
        opts[:] = [u for u in opts if _key(u) != key] + [["--" + key, draw(st.sampled_from(["1.5", "one", "1/2"]))]]
    elif name == "bad_choice":
        pos[:] = [["hodge"] if u[0] in ("kahler", "qp") else u for u in pos]
    elif name == "drop_positional":
        if pos:
            del pos[draw(st.integers(0, len(pos) - 1))]
    elif name == "extra_positional":
        pos.insert(draw(st.integers(0, len(pos))), ["extra.fp"])
    elif name == "drop_required":
        opts[:] = [u for u in opts if not options.get(_key(u), {}).get("required")]
    else:
        opts.append([draw(st.sampled_from({
            "help": ["-h", "--help"],
            "double_dash": ["--"],
            "single_dash": ["-k", "-m"],
            "unknown_option": ["--frob", "--k1"],
            "machine_value": ["--machine=x", "--machine=", "--machine=1"],
        }[name]))])
    return []


@st.composite
def leaf_argv(draw):
    """(argv, deviation, plain): an argv valid for a command's spec, spoiled
    by one mutation or by none; nests and an unknown command get no
    positionals and no options but --machine.  Where argv may meet one of
    `DEVIATIONS`, `deviation` names it and `plain` is argv with it undone
    (or None: the reader refuses argv)."""
    mutation = draw(st.sampled_from((None,) * 3 + MUTATIONS))
    path = draw(st.sampled_from(TARGETS.get(mutation, list(LEAVES) + NESTS + [("frobnicate",)])))
    spec = LEAVES.get(path, ("", {}, {}))
    opts, pos = _units(spec, draw)
    tail = _mutate(mutation, spec[2], opts, pos, draw) if mutation else []
    # Options go anywhere, positionals keep their order among themselves.
    order = draw(st.permutations(range(len(opts) + len(pos))))
    units = opts + pos
    slots = sorted(i for i in order if i >= len(opts))
    mixed = [units[i] if i < len(opts) else units[slots.pop(0)] for i in order]
    argv = list(path) + [tok for unit in mixed for tok in unit] + tail
    # O an option unit, P a positional one, - the `--`; after it every word
    # is a positional.
    kinds = "".join(
        "-" if unit == ["--"] else "O" if i < len(opts) else "P" for i, unit in zip(order, mixed)
    )
    before, dash, after = kinds.partition("-")
    if dash and not after and before.endswith("O"):
        return argv, "final_double_dash", argv[:-1]
    if path == ("sum",) and re.search("P.*O.*P", before + "P" * len(after)):
        # Before any `--`, the options first and then the files, each group
        # in its order.
        head = [u for u, k in zip(mixed, before) if k == "O"]
        head += [u for u, k in zip(mixed, before) if k == "P"]
        plain = [tok for unit in head + mixed[len(before):] for tok in unit]
        return argv, "sum_split_files", list(path) + plain + tail
    if path in NESTS and mutation == "help" and mixed[0] == ["--machine"]:
        return argv, "help_after_unknown_option", None
    return argv, None, None


def _outcome(read, argv):
    """What `read` makes of argv: the namespace as a dict, "help" (after
    printing the usage) or "error"."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            ns = read(argv)
    except ParseError:
        return "error"
    except SystemExit:  # argparse after its help
        ns = None
    if ns is None:
        assert out.getvalue().startswith("usage: alexlab")
        return "help"
    return vars(ns)


@settings(max_examples=200, deadline=None)
@given(leaf_argv())
@example((["test", "--kmax=-2", "qp", "g.fp", "--machine"], None, None))
@example((["test", "qp", "g.fp", "--kmax", "-2"], None, None))
@example((["build", "torusknot", "--p", "2", "--q", "3", "--p", "5"], None, None))
@example((["build", "freebycyclic", "--rank", "2", "--image", "x1", "--ima", "x2"], None, None))
@example((["tori", "intersect", "--t", "n=1", "--t2", "n=1"], None, None))
@example((["cv", "g.fp", "--rho", "-1/6"], None, None))
@example((["cv", "g.fp", "--rho", "1/6", "--machine=x"], None, None))
@example(
    (["sum", "a.fp", "--kmax", "2", "b.fp"], "sum_split_files",
     ["sum", "--kmax", "2", "a.fp", "b.fp"])
)
@example((["delta", "g.fp", "--k", "1", "--"], "final_double_dash", ["delta", "g.fp", "--k", "1"]))
@example((["tori", "--machine", "-h"], "help_after_unknown_option", None))
def test_plain_reader_agrees_with_argparse(case):
    argv, deviation, plain = case
    got, expected = _outcome(cli.read_argv, argv), _outcome(REFERENCE.parse_args, argv)
    if got != expected:
        assert deviation is not None, (argv, got, expected)
        kind = got if isinstance(got, str) else "namespace"
        assert (expected, kind) == DEVIATIONS[deviation], argv
        assert plain is None or got == _outcome(REFERENCE.parse_args, plain), argv


# -- the exit-code contract under random argv -----------------------------------

FUZZ_HEADS = [[name] for name in cli._COMMANDS] + [
    ["tori", "intersect"], ["build", "torusknot"], ["build", "torusbundle"],
    ["build", "freebycyclic"], ["frobnicate"], ["-h"],
]
FUZZ_WORDS = [
    "FILE", "FILE", "-h", "--", "--machine", "--machine=x", "--k", "--kmax", "--rho",
    "--phi", "--data", "--t1", "--t2", "--matrix", "--p", "--q", "--rank", "--image",
    "--rh", "--km", "--mach", "--k=1", "--rho=-1/6", "1/6", "-1/6", "1/0", "0", "1", "2",
    "-1", "1.5", "1e9", "1E-2", "1e100000000", "kahler", "qp", "1,0", "n=2;rows=(1,0)",
    "n=1;q=(1/2)", "n=100000000", "2,1,1,1", "x1 x2", "1000000",
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def fuzz_file(fuzz_dir):
    f = fuzz_dir / "trefoil.fp"
    f.write_text(TREFOIL_FP)
    return str(f)


# Numbers stay small but for "1000000" and a torus rank past
# `cli.TORUS_MAX_RANK`: a huge --kmax or --k passes `alexinv.MAX_LISTED_K`,
# and a torus rank past its bound, each of which exits 2 at once; a huge
# --rank without as many --image words exits 1 before any work.
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(FUZZ_HEADS),
    st.lists(st.one_of(st.sampled_from(FUZZ_WORDS), st.text(max_size=4)), max_size=7),
)
@example(["ball"], ["a\x00b"])  # open() raises ValueError for a NUL
@example(["abelianize"], ["a\nb"])  # the message quotes the newline
def test_random_argv_keeps_the_exit_code_contract(fuzz_file, head, words):
    argv = head + [fuzz_file if w == "FILE" else w for w in words]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


# -- the exit-code contract under spoiled .fp files -----------------------------

FP_ARGVS = (
    (["delta"], ["--k", "1"]), (["thickness"], []), (["test", "qp"], []),
    (["abelianize"], []), (["ball"], []), (["cv"], ["--rho", "1/6"]),
)
# Bytes that are no UTF-8 (a lone continuation, a cut sequence, an encoded
# surrogate) and the NUL, which is UTF-8 but no .fp text.
BAD_BYTES = (b"\x00", b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"a\x00b")


@st.composite
def spoiled_fp(draw):
    """(bytes, how): a small .fp file (at most 3 generators and 3 relators,
    |exponent| <= 3) truncated at a random byte, with bad bytes inserted, or
    with one token past the letter budget added."""
    names = "abc"[: draw(st.integers(1, 3))]
    token = st.builds(
        lambda g, e: g if e == 1 else "%s^%d" % (g, e),
        st.sampled_from(names), st.sampled_from((-3, -2, -1, 1, 2, 3)),
    )
    rels = draw(st.lists(st.lists(token, min_size=1, max_size=4), max_size=3))
    lines = ["gens " + " ".join(names)] + ["rel " + " ".join(r) for r in rels]
    how = draw(st.sampled_from(("truncate", "bytes", "huge")))
    if how == "huge":
        e = draw(st.integers(fpgroup.DEFAULT_MAX_LETTERS + 1, 10**40)) * draw(st.sampled_from((1, -1)))
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, "rel %s^%d" % (draw(st.sampled_from(names)), e))
    data = ("\n".join(lines) + "\n").encode()
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data, how


@settings(max_examples=60, deadline=None)
@given(spoiled_fp())
@example((b"gens a b\nrel a^2 b^-3 a^1000001\n", "huge"))
@example((b"gens a\x00 b\nrel a^2 b^-3\n", "bytes"))
@example((b"gens a b\nrel a^2 b^\xff-3\n", "bytes"))
@example((b"gens a b\nrel a^2 b^", "truncate"))
def test_spoiled_fp_keeps_the_exit_code_contract(fuzz_dir, case):
    data, how = case
    path = fuzz_dir / "spoiled.fp"
    path.write_bytes(data)
    for head, opts in FP_ARGVS:
        argv = head + [str(path)] + opts
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2, 3), (argv, data, err.getvalue())
        if how == "huge" and head != ["abelianize"]:
            assert code == 2, (argv, data, err.getvalue())  # the letter budget
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
            assert "Traceback" not in err.getvalue()
        else:
            assert err.getvalue() == ""


def test_module_entry_point(capsys, trefoil_file):
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "alexlab", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    argv = ["cv", trefoil_file, "--rho", "1/6", "--machine"]
    proc = entry(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(capsys, *argv)[1]
    proc = entry("-h")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: alexlab")
    proc = entry()
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ")
