#!/usr/bin/env python3
"""alexlab benchmark: a single-process, closed-loop load generator with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick      # smoke test: every workload, small slice
    python3 bench/run.py --record     # re-record bench/digests.json

Workloads (see BENCHMARK.json for why each was chosen):

  survey           in-process, warm caches: the full per-group analysis of
                   many small groups from the paper's families.
  orders_multivar  in-process: the thickness question (first order plus
                   Newton dimension) at b1 = 2..4.
  cli_sidepaths    one `alexlab` CLI command per request, through
                   alexlab.cli.run with alexlab's caches emptied first:
                   `test qp`, `cv`, `ball` and `delta --k 1`.

Inputs are generated from --seed as `.fp` text; alexlab sees only that
text.  Every answer is checked: torus knots and the other closed-form
families against the benchmark's own arithmetic, everything else against
digests recorded in bench/digests.json for the default seed.  For any other
seed the digests are written to bench/out/ so two commits can be diffed.

A run is whole rounds over its pool, one request at a time, each request
after one run of a fixed calibration; times are reported scaled by the
calibration's median, which takes most of the shared machine's wandering
speed out of them (see PassResult).  The measured, unscaled figures are printed too.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass, whose spans
are written to bench/out/.  The lines before it are a human-readable report
(failed_frac, per-command medians, input properties, run metadata).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from math import lcm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, SPAN_NAMES, Tracer, install  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # whole rounds over the pool, so every run has the pool's mix
CALIBRATION_REF_S = 0.3e-3  # see PassResult
CLI_COMMANDS = ("qp", "cv", "ball", "delta")


class BenchError(Exception):
    """The benchmark cannot run here (for example, alexlab is missing)."""


class Workload:
    def __init__(self, pool, execute, check, warmup: bool, cli: bool):
        self.pool, self.execute, self.check = pool, execute, check
        self.warmup, self.cli = warmup, cli


WORKLOADS = {
    "survey": Workload(wl.survey_pool, wl.run_survey, wl.check_survey, warmup=True, cli=False),
    "orders_multivar": Workload(wl.orders_pool, wl.run_orders, wl.check_orders, warmup=False, cli=False),
    "cli_sidepaths": Workload(wl.cli_pool, None, wl.check_cli, warmup=False, cli=True),
}


def import_alexlab():
    """A fresh import of alexlab from this checkout's src/ (the previous
    module objects, and their caches, are dropped first)."""
    src = os.path.join(ROOT, "src")
    for name in [m for m in sys.modules if m == "alexlab" or m.startswith("alexlab.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    try:
        import alexlab
        import alexlab.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError("cannot import alexlab from %s: %s" % (src, exc))
    if not os.path.abspath(alexlab.__file__).startswith(src + os.sep):
        raise BenchError("alexlab was imported from %s, not %s" % (alexlab.__file__, src))
    for name in LAYERS:
        if not hasattr(alexlab, name):
            raise BenchError("alexlab has no module %s" % name)
    return alexlab


def cached_functions() -> list:
    """alexlab's memoised functions (functools caches), emptied before each
    CLI request so that it starts as cold as a new process."""
    mods = [m for name, m in sys.modules.items() if name.startswith("alexlab.")]
    return list({id(f): f for m in mods for f in vars(m).values() if hasattr(f, "cache_clear")}.values())


class Context:
    """What set-up leaves for the timed passes."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.workload = WORKLOADS[name]
        self.ax = None
        self.pool = []
        self.paths = []
        self.caches = []
        self.import_s = 0.0

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.ax = import_alexlab()
        self.import_s = time.perf_counter() - t0
        self.caches = cached_functions()
        self.pool = self.workload.pool(self.seed)
        if self.workload.cli:
            self.paths = []
            for i, req in enumerate(self.pool):
                path = os.path.join(self.workdir, "r%03d.fp" % i)
                with open(path, "w") as fh:
                    fh.write(req["spec"]["fp"])
                self.paths.append(path)
        if self.workload.warmup:
            for req in self.pool:
                self.workload.execute(self.ax, req["spec"])
        return time.perf_counter() - t0

    def execute(self, i: int) -> dict:
        """Run pool request i; raise on any failure of the program."""
        req = self.pool[i]
        if not self.workload.cli:
            return self.workload.execute(self.ax, req["spec"])
        return wl.run_cli(self.ax, wl.cli_argv(req["spec"], self.paths[i]), self.caches)


class Gate:
    """Checks every answer; remembers every digest it saw."""

    def __init__(self, seed: int | None, check, expected: dict):
        self.seed, self.check = seed, check
        self.expected = expected
        self.seen = {}
        self.problems = []

    def __call__(self, req, doc) -> bool:
        d = ref.digest(doc)
        self.seen[req["key"]] = d
        problem = self.check(req["spec"], doc)
        want = self.expected.get(req["key"])
        if problem is None and want is not None and want != d:
            problem = "answer digest differs from the recorded one"
        if problem is None and want is None and self.seed == DEFAULT_SEED:
            problem = "no recorded digest for this input of the default seed"
        if problem is not None:
            self.problems.append("%s %s: %s" % (req["kind"], req["key"], problem))
        return problem is None


def calibration() -> dict:
    """A fixed piece of the kind of work alexlab does: the product of two
    small sparse bivariate polynomials held as dicts, in pure Python."""
    f = {(i, j): 7 * i + 3 * j + 1 for i in range(6) for j in range(6)}
    g = {(i, j): i - 2 * j + 5 for i in range(5) for j in range(5)}
    out = {}
    for (i, j), c in f.items():
        for (k, l), d in g.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


class PassResult:
    """Every execution of a set of rounds over the pool, each preceded by
    one run of the calibration.

    The speed of a shared machine wanders: on a 2-vCPU virtual machine the
    same pool ran from 25% to 60% slower for minutes at a time, and so did
    any fixed loop.  Times are therefore reported scaled by
    sqrt(CALIBRATION_REF_S / median calibration time of the pass).  The
    square root, not the full ratio: between runs on that machine the
    program's time followed the calibration's to a power between about 0.5
    and 1.4, depending on what slowed the machine, and over ten runs of a
    workload the square root left the least spread.  A change to alexlab
    does not change the calibration, so it moves the scaled times as it
    moves the measured ones.  The report lines give the measured figures
    too."""

    def __init__(self):
        self.times = {}  # pool index -> seconds of each of its executions
        self.calibrations = []  # seconds of each calibration run
        self.docs = {}  # pool index -> answer, for the input properties
        self.kind_of = {}  # pool index -> kind
        self.kinds = []  # kind of each execution in order (the trace's request ids)
        self.failed = 0
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    def scale(self, scaled: bool = True) -> float:
        """Reference seconds per measured second."""
        return (CALIBRATION_REF_S / statistics.median(self.calibrations)) ** 0.5 if scaled else 1.0

    def latencies_ms(self, scaled: bool = True, kind: str | None = None) -> list:
        f = 1000 * self.scale(scaled)
        return [t * f for i, ts in self.times.items() if kind in (None, self.kind_of[i]) for t in ts]

    def groups_per_s(self, scaled: bool = True) -> float:
        """Requests completed per second of the timed rounds."""
        return self.attempted / (sum(sum(ts) for ts in self.times.values()) * self.scale(scaled))


def run_round(ctx: Context, gate: Gate, res: PassResult, tracer: Tracer | None = None):
    """One pass over the whole pool, in order, each request after one run of
    the calibration.  Traced executions get request ids in the order they
    run."""
    uninstall = install(ctx.ax, tracer) if tracer is not None else None
    clock = time.perf_counter
    try:
        for i, req in enumerate(ctx.pool):
            if tracer is not None:
                tracer.rid = res.attempted
            t0 = clock()
            calibration()
            t1 = clock()
            try:
                doc = ctx.execute(i)
            except Exception as exc:  # a failed request is counted, not fatal
                doc = None
                gate.problems.append("%s %s: %s: %s" % (req["kind"], req["key"], type(exc).__name__, exc))
            res.times.setdefault(i, []).append(clock() - t1)
            res.calibrations.append(t1 - t0)
            res.kinds.append(req["kind"])
            res.kind_of[i] = req["kind"]
            if doc is None or not gate(req, doc):
                res.failed += 1
            else:
                res.docs.setdefault(i, doc)
    finally:
        if uninstall is not None:
            uninstall()
    res.rounds += 1


def timed_rounds(ctx: Context, gate: Gate, seconds: float, plan, min_rounds: int) -> float:
    """Closed loop with one client: the next request is sent when the
    previous one is done, in rounds over the whole pool.  plan(k) gives the
    (result, tracer) of round k.  Rounds go on until `seconds` have passed;
    the round in flight is finished, so a run holds whole rounds and the
    pool's mix.  Returns the seconds taken."""
    clock = time.perf_counter
    t_start = clock()
    k = 0
    while True:
        res, tracer = plan(k)
        run_round(ctx, gate, res, tracer)
        k += 1
        if k >= min_rounds and clock() - t_start >= seconds:
            return clock() - t_start


# -- reporting ---------------------------------------------------------------


def quantile(values, q: int) -> float:
    """The q-th decile (q = 5 is the median)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _is_one(doc) -> bool:
    return len(doc["terms"]) == 1 and doc["terms"][0]["c"] == 1 and not any(doc["terms"][0]["e"])


def _degree(doc) -> int:
    """Largest exponent spread of a polynomial document over its variables."""
    if not doc["terms"]:
        return 0
    exps = [t["e"] for t in doc["terms"]]
    return max(max(e[v] for e in exps) - min(e[v] for e in exps) for v in range(doc["nvars"]))


def _first_delta(name: str, doc):
    if name == "survey":
        per_k = doc["qp"]["per_k"]
        return per_k[0]["delta"] if per_k else None
    if name == "orders_multivar":
        return doc["delta"]
    res = doc["result"]
    if "per_k" in res:
        return res["per_k"][0]["delta"]
    return res.get("delta")


def input_properties(ctx: Context, res: PassResult) -> dict:
    """Properties of the inputs the pass ran (each pool entry once)."""
    used = sorted(res.times)
    specs = [ctx.pool[i]["spec"] for i in used]
    b1_hist, kinds, orders, ball_terms = {}, {}, {}, {}
    for s in specs:
        b1_hist[s["b1"]] = b1_hist.get(s["b1"], 0) + 1
        kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
        for rho in s.get("chars", ()):
            m = lcm(*(Fraction(x).denominator for x in rho))
            orders[m] = orders.get(m, 0) + 1
        if "rho" in s:
            m = int(s["rho"].split("/")[1])
            orders[m] = orders.get(m, 0) + 1
        if "twist" in s:
            terms = 1
            for p in s["twist"]:
                terms *= len(ref.twist_knot_delta(p))
            ball_terms[terms] = ball_terms.get(terms, 0) + 1
    deltas = [_first_delta(ctx.name, res.docs[i]) for i in used if i in res.docs]
    deltas = [d for d in deltas if d is not None]
    return {
        "inputs": len(specs),
        "kinds": kinds,
        "b1_histogram": {str(k): v for k, v in sorted(b1_hist.items())},
        "delta_one_share": round(sum(map(_is_one, deltas)) / len(deltas), 4) if deltas else None,
        "max_delta_degree": max(map(_degree, deltas), default=0),
        "max_exponent": max(s["max_exp"] for s in specs) if specs else 0,
        "ball_delta_terms": {str(k): v for k, v in sorted(ball_terms.items())},
        "character_orders": {str(k): v for k, v in sorted(orders.items())},
    }


def per_command_p50(res: PassResult) -> dict:
    """Scaled median milliseconds and executions of each CLI command."""
    out = {}
    for cmd in CLI_COMMANDS:
        lat = res.latencies_ms(kind=cmd)
        out[cmd] = (statistics.median(lat), len(lat)) if lat else (0.0, 0)
    return out


def git_rev() -> str:
    """The commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref_line = fh.read().strip()
        if ref_line.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref_line[5:])) as fh:
                return fh.read().strip()
        return ref_line
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def load_expected(name: str) -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {})


def write_digests(name: str, seed: int, gate: Gate):
    if seed == DEFAULT_SEED:
        return
    path = os.path.join(OUT, "digests-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump(gate.seen, fh, indent=0, sort_keys=True)


def run_untraced(ctx: Context, seconds: float) -> dict:
    setups = [ctx.setup() for _ in range(SETUP_REPEATS)]
    gate = Gate(ctx.seed, ctx.workload.check, load_expected(ctx.name))
    res = PassResult()
    elapsed = timed_rounds(ctx, gate, seconds, lambda k: (res, None), MIN_ROUNDS)
    write_digests(ctx.name, ctx.seed, gate)
    lat_ms = res.latencies_ms()
    raw_ms = res.latencies_ms(scaled=False)
    scale = res.scale()
    lines = [
        "workload %s seed %d: %d rounds over %d requests, %d executions in %.2f s, %d failed (failed_frac %.4f)"
        % (ctx.name, ctx.seed, res.rounds, len(res.times), res.attempted, elapsed, res.failed, res.failed / res.attempted),
        "calibration: median %.4f ms over %d runs, scale %.4f (reference %.4f ms)"
        % (1000 * statistics.median(res.calibrations), len(res.calibrations), scale, 1000 * CALIBRATION_REF_S),
        "measured, unscaled: setup_s %s, groups_per_s %.4f, latency_p50_ms %.4f, latency_p90_ms %.4f"
        % ("/".join("%.4f" % s for s in setups), res.groups_per_s(False), quantile(raw_ms, 5), quantile(raw_ms, 9)),
    ]
    if len(lat_ms) < 100:
        lines.append("warning: %d executions leave fewer than 10 beyond p90" % len(lat_ms))
    if ctx.workload.cli:
        for cmd, (p50, count) in per_command_p50(res).items():
            lines.append("%s_p50_ms %.3f ms over %d executions" % (cmd, p50, count))
    lines.append("inputs: " + json.dumps(input_properties(ctx, res), sort_keys=True))
    lines.append("run: " + json.dumps(run_metadata(ctx, res), sort_keys=True))
    lines += ["problem: " + p for p in gate.problems[:20]]
    print("\n".join(lines))
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups) * scale, "s"),
            "groups_per_s": metric(res.groups_per_s(), "1/s"),
            "latency_p50_ms": metric(quantile(lat_ms, 5), "ms"),
            "latency_p90_ms": metric(quantile(lat_ms, 9), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    }


def run_traced(ctx: Context, seconds: float) -> dict:
    """Rounds untraced, traced, traced, untraced, over and over, so a drift
    in machine speed cancels out of the tracing overhead.  Per-layer
    metrics are per traced execution."""
    ctx.setup()
    gate = Gate(ctx.seed, ctx.workload.check, load_expected(ctx.name))
    plain, traced = PassResult(), PassResult()
    tracer = Tracer()
    timed_rounds(ctx, gate, seconds, lambda k: (plain, None) if k % 4 in (0, 3) else (traced, tracer), 4)
    write_digests(ctx.name, ctx.seed, gate)
    n = traced.attempted
    agg = tracer.aggregate().get(None, {})
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, total_s = agg.get(name, (0, 0.0, 0.0))
        metrics[name + ".calls"] = metric(calls / n, "calls/req")
        metrics[name + ".self_s"] = metric(self_s / n, "s/req")
        metrics[name + ".total_s"] = metric(total_s / n, "s/req")
    c = tracer.counters
    gcd_calls = agg.get("laurent.gcd", (0,))[0]
    div_calls = agg.get("laurent.exact_div", (0,))[0]
    metrics["laurent.gcd.operand_terms"] = metric(c["gcd_operand_terms"] / max(gcd_calls, 1), "terms/call")
    metrics["laurent.gcd.unit_frac"] = metric(c["gcd_unit_results"] / max(gcd_calls, 1), "frac")
    metrics["laurent.exact_div.hit_frac"] = metric(c["exact_div_hits"] / max(div_calls, 1), "frac")
    metrics["cli.import_s"] = metric(ctx.import_s, "s")
    metrics["trace.untraced_groups_per_s"] = metric(plain.groups_per_s(), "1/s")
    metrics["trace.traced_groups_per_s"] = metric(traced.groups_per_s(), "1/s")
    metrics["trace.overhead_frac"] = metric(1 - traced.groups_per_s() / plain.groups_per_s(), "frac")
    for cmd, (p50, _) in per_command_p50(plain).items():
        metrics["%s_p50_ms" % cmd] = metric(p50, "ms")

    by_kind = time_by_kind(tracer, traced)
    top = {kind: [[span, table[span][0]] for span in largest_self(table)] for kind, table in by_kind.items()}
    header = {
        "workload": ctx.name,
        "seed": ctx.seed,
        "requests": n,
        "counters": tracer.counters,
        "by_kind_self_total_s": by_kind,
        "run": run_metadata(ctx, plain),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "trace-%s-seed%d.spans" % (ctx.name, ctx.seed)), header)
    failed = plain.failed + traced.failed
    attempted = plain.attempted + n
    lines = [
        "workload %s seed %d traced: %d untraced + %d traced executions, %d failed (failed_frac %.4f)"
        % (ctx.name, ctx.seed, plain.attempted, n, failed, failed / attempted),
        "tracing overhead: %.1f%% of groups_per_s (%.3f untraced, %.3f traced)"
        % (100 * metrics["trace.overhead_frac"]["value"], plain.groups_per_s(), traced.groups_per_s()),
        "spans: %d" % len(tracer.name),
    ]
    for kind, names in top.items():
        lines.append("largest self time, %s requests: %s" % (kind, ", ".join("%s %.4f s/req" % tuple(x) for x in names)))
    lines += predictions(ctx.name, agg, n, by_kind)
    lines += ["problem: " + p for p in gate.problems[:20]]
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def time_by_kind(tracer: Tracer, res: PassResult) -> dict:
    """Per request kind and span name: [self seconds, total seconds], each
    per request of that kind."""
    out = {}
    for kind, table in sorted(tracer.aggregate(lambda rid: res.kinds[rid]).items()):
        count = res.kinds.count(kind)
        out[kind] = {name: [row[1] / count, row[2] / count] for name, row in table.items()}
    return out


def largest_self(table: dict, k: int = 3) -> list:
    return sorted(table, key=lambda name: -table[name][0])[:k]


def predictions(name: str, agg: dict, requests: int, by_kind: dict) -> list:
    """The predictions (bench/predictions.json) of the largest self time, checked as
    stated: a miss is reported, not explained away."""
    checks = []
    if name == "orders_multivar":
        table = {span: [v[1] / requests, v[2] / requests] for span, v in agg.items()}
        checks.append(("laurent.gcd has the largest self time on orders_multivar", table, "laurent.gcd"))
    if name == "cli_sidepaths" and "qp" in by_kind:
        checks.append(
            ("laurent.cyclotomic_* has the largest self time on test qp", by_kind["qp"], "laurent.cyclotomic_")
        )
    lines = []
    for text, table, prefix in checks:
        winner = largest_self(table, 1)[0] if table else None
        held = winner is not None and winner.startswith(prefix)
        spans = ", ".join(
            "%s self %.4g s/req total %.4g s/req" % (span, v[0], v[1])
            for span, v in sorted(table.items())
            if span.startswith(prefix) or span == winner
        )
        lines.append(
            "prediction: %s: %s (largest self time: %s; %s)"
            % (text, "holds" if held else "WRONG", winner, spans)
        )
    return lines


def run_metadata(ctx: Context, res: PassResult) -> dict:
    return {
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "samples": res.attempted,
        "requests": len(res.times),
        "rounds": res.rounds,
        "calibration_ms": 1000 * statistics.median(res.calibrations),
        "pool": len(ctx.pool),
        "seed": ctx.seed,
    }


# -- smoke test and recording ------------------------------------------------

QUICK_SLICE = {"survey": 10, "orders_multivar": 6, "cli_sidepaths": 4}


def quick(workdir: str) -> int:
    """Every workload on a small slice of the default seed, gate on, no
    timing assertions.  Exit code 0 when every answer checks out."""
    bad = 0
    for name, count in QUICK_SLICE.items():
        ctx = Context(name, DEFAULT_SEED, workdir)
        ctx.setup()
        gate = Gate(DEFAULT_SEED, ctx.workload.check, load_expected(name))
        for i in range(count):
            try:
                gate(ctx.pool[i], ctx.execute(i))
            except Exception as exc:
                gate.problems.append("%s: %s: %s" % (ctx.pool[i]["kind"], type(exc).__name__, exc))
        tracer = Tracer()
        uninstall = install(ctx.ax, tracer)
        try:
            gate(ctx.pool[0], ctx.execute(0))
        finally:
            if uninstall is not None:
                uninstall()
        if not tracer.aggregate():
            gate.problems.append("the traced request recorded no spans")
        print("%s: %d requests, %s" % (name, count + 1, "ok" if not gate.problems else "FAILED"))
        for p in gate.problems:
            print("  " + p)
        bad += bool(gate.problems)
    return 1 if bad else 0


def record(workdir: str) -> int:
    """Answer every pool request of the default seed once and write their
    digests to bench/digests.json.  Closed-form checks still apply."""
    table = {}
    for name in WORKLOADS:
        ctx = Context(name, DEFAULT_SEED, workdir)
        ctx.setup()
        gate = Gate(None, ctx.workload.check, {})
        for i, req in enumerate(ctx.pool):
            gate(req, ctx.execute(i))
        if gate.problems:
            for p in gate.problems:
                print(p, file=sys.stderr)
            return 1
        table[name] = gate.seen
        print("%s: %d digests" % (name, len(gate.seen)))
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alexlab benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="smoke test of every workload")
    ap.add_argument("--record", action="store_true", help="re-record the answer digests")
    args = ap.parse_args(argv)
    if not (args.quick or args.record or args.workload):
        ap.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.quick:
            return quick(workdir)
        if args.record:
            return record(workdir)
        ctx = Context(args.workload, args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        result = run(ctx, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
