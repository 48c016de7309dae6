import json
import time

import pytest

from alexlab import cli, fpgroup, laurent

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
    # argparse reads a separate "-1/6" as an option, so the help text says
    # to write --rho=-1/6; rationals are taken mod 1, so it is 5/6.
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
    "abelianize_trefoil.txt": ["abelianize", "trefoil.fp"],
}


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_machine_goldens_byte_equal(capsys, tmp_path, monkeypatch, golden):
    import pathlib

    from corpus import WHITEHEAD

    (tmp_path / "trefoil.fp").write_text(TREFOIL_FP)
    (tmp_path / "solbundle.fp").write_text(SOL_FP)
    (tmp_path / "rp3.fp").write_text("gens x\nrel x^2\n")
    (tmp_path / "wh.fp").write_text(fpgroup.serialize_presentation(WHITEHEAD.presentation))
    (tmp_path / "thurston.dat").write_text(THURSTON_DAT)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *GOLDENS[golden])
    assert code == 0
    expected = (pathlib.Path(__file__).parent / "goldens" / golden).read_text()
    assert out == expected


def test_limit_exit_code(capsys, trefoil_file, monkeypatch):
    monkeypatch.setenv("ALEXLAB_MAX_VARS", "0")
    code, out, err = run_cli(capsys, "delta", trefoil_file, "--k", "1")
    assert code == 2
    assert "limit" in err.lower()


def test_gcd_cap_exit_code(capsys, trefoil_file, monkeypatch):
    # A gcd whose candidates never pass the division check stops at the cap
    # on its evaluation points: exit 2, not an internal error or a hang.
    # Keys as in `laurent._heu_gcd`: the lift of the constant slice (key 0)
    # has keys 1 and 0 for the new last variable to the powers 1 and 0.
    def non_divisor(h, xi):
        return {1: 1, 0: 3 * xi + 1}

    monkeypatch.setattr(laurent, "_lift_last", non_divisor)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta", trefoil_file, "--k", "1")
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


# -- the parser: one leaf per command, the full tree for help and usage errors --

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
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trefoil.fp").write_text(TREFOIL_FP)
    lazy = run_cli(capsys, *argv)
    full_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full_tree())
    assert run_cli(capsys, *argv) == lazy
    code, out, err = lazy
    if "-h" in argv:  # run returns the help's exit code instead of raising SystemExit
        assert (code, err) == (0, "") and out.startswith("usage: alexlab")
        assert argv != ["-h"] or all(c in out for c in COMMANDS)
    else:
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_cv_request_adds_one_leaf(capsys, monkeypatch, trefoil_file):
    leaves = []
    real_leaf = cli._leaf

    def counting_leaf(sub, name, *args, **kwargs):
        leaves.append(name)
        real_leaf(sub, name, *args, **kwargs)

    monkeypatch.setattr(cli, "_leaf", counting_leaf)
    code, out, _ = run_cli(capsys, "cv", trefoil_file, "--rho", "1/6")
    assert (code, out) == (0, "dim: 1\nV_1: yes\n")
    assert leaves == ["cv"]


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
