#!/usr/bin/env python3
"""The inputs of ROADMAP's Baseline blow-up table as named probes.

    python tools/probes.py                  # every probe, one after another
    python tools/probes.py --only ID ...    # the named probes only
    python tools/probes.py --quick          # a small subset, under 5 s
    python tools/probes.py --cap 30         # wall-clock cap per probe, seconds

Each probe builds its input in code from fixed seeds and runs in a child
process of its own, one child at a time.  The child starts a new session,
so a probe that passes the cap is stopped by killing its whole process
group.  Its peak RSS is read from the rusage that `os.wait4` returns for
that child alone (RUSAGE_CHILDREN would be a running maximum over all of
them).

One JSON line is printed per probe: its id, the seconds its body took,
the child's peak RSS in MB, and the outcome: `sha256:<16 hex digits>` of
the answer, `LimitError` (alexlab stopped the work: exit 2), `timeout`,
or `error: <message>`.  A body that takes under 0.2 s is run again, with
alexlab's caches emptied before every run, until 0.2 s have passed, and
the least time is reported; when no run finished (a timeout, or a
LimitError), the seconds are the child's wall-clock time.  The probes
record facts and pass no bound; the exit status is 1 only when some probe
ends in an error.

The probes import alexlab from this checkout's src/.  Some call private
functions (`alexinv._character_rank`), because those are what the table
measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CAP_S = 30.0
REPEAT_S = 0.2


def _alexlab():
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import alexlab

    return alexlab


# -- inputs -------------------------------------------------------------------


def _dense4_block(ax, m):
    """The 4 x 4 "combination" block of tests/test_alexinv.py::
    test_character_rank_of_dense_blocks at order m: the test's draws from
    random.Random(m) are replayed up to it.  Entries have four terms,
    exponents in [-3, 3]^2 and coefficients in {+-1, +-2}; the last row is
    t1 * row_0 + t2^-1 * row_1, so the rank is 3."""
    LaurentPoly = ax.laurent.LaurentPoly
    rng = random.Random(m)

    def entry():
        p = LaurentPoly.zero(2)
        for _ in range(4):
            exps = [rng.randint(-3, 3), rng.randint(-3, 3)]
            p = p + LaurentPoly.monomial(2, exps, rng.choice((-2, -1, 1, 2)))
        return p

    t1, t2_inv = LaurentPoly.variable(2, 0), LaurentPoly.monomial(2, (0, -1))
    for shape in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)):
        for kind in ("random", "combination", "phi"):
            rows = [[entry() for _ in range(shape[1])] for _ in range(shape[0])]
            if shape == (4, 4) and kind == "combination":
                rows[-1] = [t1 * a + t2_inv * b for a, b in zip(rows[0], rows[1])]
                return rows
    raise AssertionError("unreachable")


def unitfree_text(n: int, r: int, s: int) -> str:
    """`gens x1..xn` and r relators of four syllables x^e, each drawn from
    random.Random(s) as x = randint(1, n), then e = choice([2, -2, 3, -3]).
    No Fox entry is a unit, so the reduction clears nothing."""
    rng = random.Random(s)
    lines = ["gens " + " ".join("x%d" % i for i in range(1, n + 1))]
    for _ in range(r):
        syllables = []
        for _ in range(4):
            x = rng.randint(1, n)
            syllables.append("x%d^%d" % (x, rng.choice([2, -2, 3, -3])))
        lines.append("rel " + " ".join(syllables))
    return "\n".join(lines) + "\n"


def _bivariate(ax, rng, n):
    """n distinct exponents in [0, 60]^2, coefficients in [-9, 9] \\ {0}."""
    terms = {}
    while len(terms) < n:
        terms[(rng.randint(0, 60), rng.randint(0, 60))] = rng.choice([c for c in range(-9, 10) if c])
    return ax.LaurentPoly(2, terms.items())


# -- probes -------------------------------------------------------------------
# Each builder takes the alexlab package and returns the body to time; the
# body returns the answer as JSON-able data.


def _cv_dense4(m):
    def build(ax):
        rows = _dense4_block(ax, m)
        rho = ax.alexinv.CharacterPoint((Fraction(1, m), Fraction(7, m)))
        span = tuple(range(4))
        return lambda: ax.alexinv._character_rank(ax.alexinv._Block(rows, 2, span, span), rho)

    return build


def _unitfree(n, r, s):
    def build(ax):
        text = unitfree_text(n, r, s)

        def body():
            p = ax.fpgroup.parse_presentation(text)
            k0, delta = ax.alexinv.first_order(ax.fpgroup.fox_matrix(p))
            return [k0, delta.to_doc()]

        return body

    return build


def _gcd_thue_morse14(ax):
    """prod_{i < 14} (1 - t^(2^i)) against (1 - t)^12 (t + 2)."""
    LaurentPoly = ax.laurent.LaurentPoly
    one, t = LaurentPoly.one(1), LaurentPoly.variable(1, 0)
    p = one
    for i in range(14):
        p = p * (one - t ** (2**i))
    q = (one - t) ** 12 * (t + LaurentPoly.constant(1, 2))
    return lambda: ax.laurent.gcd(p, q).to_doc()


def _mul_bivar(n):
    def build(ax):
        rng = random.Random(n)
        p, q = _bivariate(ax, rng, n), _bivariate(ax, rng, n)
        return lambda: (p * q).to_doc()

    return build


def _cyclo_free(n):
    """t^n + 3t + 1, which has no cyclotomic factor."""

    def build(ax):
        p = ax.LaurentPoly(1, [((n,), 1), ((1,), 3), ((0,), 1)])

        def body():
            d = ax.laurent.cyclotomic_decompose(p)
            return [d.content, [list(f) for f in d.factors], d.remainder.to_doc()]

        return body

    return build


def _delta_render(e):
    """The `delta --machine` rendering of the e-term Delta of a^e b^-e: its
    text and the JSON of its terms, by the CLI's encoder, after Delta is
    computed."""

    def build(ax):
        from alexlab import cli

        p = ax.fpgroup.parse_presentation("gens a b\nrel a^%d b^-%d\n" % (e, e))
        d = ax.alexinv.order_k(ax.fpgroup.fox_matrix(p), 1)
        return lambda: cli._json({"delta": d, "text": d.text()})

    return build


def _ball_lattice(nvars, r):
    """`support_polytope` of the sum of t^e over the lattice points e with
    |e| <= r in nvars variables: 317 and 709 terms for the disks of radius
    10 and 15, 123 for the sphere of radius 3."""

    def build(ax):
        exps = [e for e in product(range(-r, r + 1), repeat=nvars) if sum(x * x for x in e) <= r * r]
        p = ax.LaurentPoly(nvars, [(e, 1) for e in exps])
        return lambda: [[str(x) for x in v] for v in ax.norms.support_polytope(p).vertices]

    return build


PROBES = {
    "cv_dense4_m600": _cv_dense4(600),
    "cv_dense4_m1260": _cv_dense4(1260),
    "cv_dense4_m2310": _cv_dense4(2310),
    "unitfree_9_7_s1": _unitfree(9, 7, 1),
    "unitfree_11_9_s1": _unitfree(11, 9, 1),
    "unitfree_10_7_s1": _unitfree(10, 7, 1),
    "gcd_thue_morse14": _gcd_thue_morse14,
    "mul_bivar_30": _mul_bivar(30),
    "mul_bivar_200": _mul_bivar(200),
    "mul_bivar_800": _mul_bivar(800),
    "cyclo_free_400": _cyclo_free(400),
    "cyclo_free_800": _cyclo_free(800),
    "delta_render_300": _delta_render(300),
    "ball_disk_10": _ball_lattice(2, 10),
    "ball_disk_15": _ball_lattice(2, 15),
    "ball_sphere_3": _ball_lattice(3, 3),
}
QUICK = ("delta_render_300", "mul_bivar_30", "mul_bivar_200", "cyclo_free_400", "cv_dense4_m600", "ball_disk_10")


# -- child ---------------------------------------------------------------------


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("alexlab."):
            for f in list(vars(mod).values()):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


def run_child(pid: str) -> int:
    """Run one probe in this process and print its seconds and outcome."""
    ax = _alexlab()
    best = None
    try:
        body = PROBES[pid](ax)
        answer, start = None, time.perf_counter()
        while best is None or time.perf_counter() - start < REPEAT_S:
            _clear_caches()
            t0 = time.perf_counter()
            got = body()
            dt = time.perf_counter() - t0
            if best is not None and got != answer:
                raise AssertionError("the answer changed between runs")
            answer, best = got, dt if best is None else min(best, dt)
    except ax.errors.LimitError:
        print(json.dumps({"seconds": best, "outcome": "LimitError"}))
        return 2
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    outcome = "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]
    print(json.dumps({"seconds": best, "outcome": outcome}))
    return 0


# -- parent --------------------------------------------------------------------


def run_probe(pid: str, cap: float) -> dict:
    """Run one probe in a child process of its own session; stop the
    child's process group once it has run for `cap` seconds."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", pid],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    start = time.monotonic()
    done = 0
    try:
        while not done and time.monotonic() - start <= cap:
            time.sleep(0.005)
            done, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not done:  # past the cap, or interrupted: stop the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    timed_out = not done
    out, err = proc.communicate()
    wall = time.monotonic() - start
    line = {"id": pid, "seconds": round(wall, 3), "peak_mb": round(usage.ru_maxrss / 1024, 1)}
    if timed_out:
        line["outcome"] = "timeout"
        return line
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        last = (err.strip().splitlines() or ["exit %d" % proc.returncode])[-1]
        line["outcome"] = "error: " + last
        return line
    if child["seconds"] is not None:
        line["seconds"] = round(child["seconds"], 6)
    line["outcome"] = child["outcome"]
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--only",
        action="append",
        choices=sorted(PROBES),
        metavar="ID",
        help="run this probe (repeatable): %s" % ", ".join(PROBES),
    )
    ap.add_argument("--quick", action="store_true", help="run the quick subset: %s" % ", ".join(QUICK))
    ap.add_argument("--cap", type=float, default=DEFAULT_CAP_S, help="seconds before a probe is stopped")
    ap.add_argument("--child", choices=sorted(PROBES), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return run_child(args.child)
    ids = args.only or (QUICK if args.quick else tuple(PROBES))
    failed = False
    for pid in ids:
        line = run_probe(pid, args.cap)
        failed |= line["outcome"].startswith("error")
        print(json.dumps(line), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
