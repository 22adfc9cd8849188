"""The finegrading benchmark: time from a CLI invocation to its verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Every invocation of
``finegrading.cli.main`` is a fresh child process (``child.py``) and only one
child runs at a time, so interpreter start-up, imports and cache warm-up are
paid on every invocation, as a CLI user pays them.  One iteration runs all of
a workload's invocations; another iteration starts while it is expected to
end within ``--seconds`` (there is at least one).  Every JSON report is
checked against the hand-written verdicts in ``reference.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced iteration (``tracer.py``,
installed from outside the package) plus the scalar probe, and reports the
per-layer metrics.

The seed fixes the order of the invocations (``theorem-d21a`` has two) and
the operands of the scalar probe.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (expected records) and
``metrics``.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("theorem-f4", "theorem-d21a")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
PROBE_BATCH = 400
PROBE_ROUNDS = 7
# Children cache bytecode under src/ as an installed CLI does, whatever the
# caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong verdict)."""


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def plan(workload, reference, rng):
    """The workload's invocations as (argv, expected records), in seeded order."""
    invocations = [(inv["argv"], inv["records"]) for inv in reference["workloads"][workload]]
    rng.shuffle(invocations)
    return invocations


def spawn(mode, argv, workdir, tag, timeout=CHILD_TIMEOUT_S):
    """Run one child; returns (wall seconds, child result or None, exit code)."""
    result_path = os.path.join(workdir, tag + ".result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(spawned), mode] + argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
            cwd=ROOT,
            env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s child %r exceeded %d s" % (mode, argv, timeout))
    wall = time.monotonic() - spawned
    result = None
    if os.path.exists(result_path):
        result = load_json(result_path)
        os.remove(result_path)
        if os.path.dirname(os.path.abspath(result["source"])) != os.path.join(SRC, "finegrading"):
            raise BenchError("child imported finegrading from %s" % result["source"])
    elif proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
    return wall, result, proc.returncode


def check_report(report_path, code, expected):
    """Number of expected records that failed (all of them if the run failed)."""
    if code != 0 or not os.path.exists(report_path):
        return len(expected)
    records = {r["name"]: r for r in load_json(report_path)["records"]}
    os.remove(report_path)
    failed = 0
    for name, actual in expected.items():
        rec = records.get(name)
        if rec is None or rec["status"] != "pass" or rec["actual"] != actual:
            failed += 1
    return failed


def iteration(invocations, mode, workdir):
    """Run every invocation once, one child at a time."""
    out = {"wall": 0.0, "rss_kb": 0, "setups": [], "failed": 0, "attempted": 0,
           "isolated": True, "traces": []}
    for i, (argv, expected) in enumerate(invocations):
        report_path = os.path.join(workdir, "report-%d.json" % i)
        args = argv + ["--format", "json", "--out", report_path]
        wall, result, code = spawn(mode, args, workdir, "inv-%d" % i)
        out["wall"] += wall
        out["attempted"] += len(expected)
        out["failed"] += check_report(report_path, code, expected)
        if result is None:  # the child died early; its records count as failed
            continue
        out["rss_kb"] = max(out["rss_kb"], result["peak_rss_kb"])
        out["setups"].append(result["setup_s"])
        if mode == "plain" and result["tracing_modules"]:
            out["isolated"] = False
        if mode == "trace":
            out["traces"].append(result["trace"])
    return out


def setup_samples(workdir, n):
    samples = []
    for i in range(n):
        _, result, code = spawn("setup", [], workdir, "setup-%d" % i)
        if code != 0 or result is None or result["tracing_modules"]:
            raise BenchError("set-up child failed (exit %s)" % code)
        samples.append(result["setup_s"])
    return samples


def tail_text(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return "no percentile has ten samples beyond it (n=%d)" % n
    pct = 100 * (n - 10) // n
    value = sorted(samples)[max(0, -(-pct * n // 100) - 1)]
    return "p%d %.4f s (n=%d)" % (pct, value, n)


def scalar_probe(rng):
    """Microseconds per ``*`` on seeded operands of three kinds (median of rounds)."""
    sys.path.insert(0, SRC)
    from finegrading.scalars import ALPHA, Cyc, Scalar

    def cyc():
        while True:
            c = Cyc([rng.randint(-3, 3) for _ in range(4)], rng.randint(1, 4))
            if not c.is_zero():
                return c

    def poly(degree):
        s = Scalar.from_cyc(cyc())
        for _ in range(degree):
            s = s * ALPHA + Scalar.from_cyc(cyc())
        return s

    kinds = {
        "scalars.cyc_mul_us": lambda: cyc(),
        "scalars.scalar_mul_us": lambda: Scalar.from_cyc(cyc()),
        "scalars.alpha_mul_us": lambda: poly(rng.randint(1, 2)) / poly(rng.randint(0, 2)),
    }
    out = {}
    for name, make in kinds.items():
        pairs = [(make(), make()) for _ in range(PROBE_BATCH)]
        rounds = []
        for _ in range(PROBE_ROUNDS):
            t0 = time.perf_counter()
            for a, b in pairs:
                a * b
            rounds.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[name] = statistics.median(rounds)
    return out


def summed(traces):
    """Span totals {name: [calls, self seconds]} and counters over invocations."""
    stats, counts = {}, {}
    for tr in traces:
        for key, row in tr["stats"].items():
            stats[key] = [a + b for a, b in zip(stats.get(key, (0, 0.0)), row)]
        for key, count in tr["counts"].items():
            counts[key] = counts.get(key, 0) + count
    return stats, counts


def layer_value(name, stats, counts):
    """One per-layer metric: ``<span>.calls``, ``<span>.self_s`` or a counter."""
    if name == "constructions.build.calls":
        return sum(v[0] for k, v in stats.items() if k.startswith("constructions.build_"))
    if name == "abgroup.parse.calls":
        return stats["abgroup.parse_group"][0] + stats["abgroup.parse_element"][0]
    if name in counts:
        return counts[name]
    base, _, field = name.rpartition(".")
    if base in counts and field == "calls":
        return counts[base]
    if base in stats and field in ("calls", "self_s"):
        return stats[base][0] if field == "calls" else stats[base][1]
    raise BenchError("no traced value for per-layer metric %r" % name)


def run(args, bench, reference):
    rng = random.Random(args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        invocations = plan(args.workload, reference, rng)
        nrec = sum(len(expected) for _, expected in invocations)
        print("workload %s, seed %d, trace %d: %d invocation(s), %d expected records"
              % (args.workload, args.seed, args.trace, len(invocations), nrec))
        if args.trace:
            return traced(args, bench, invocations, rng, workdir)
        return untraced(args, bench, invocations, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, bench, invocations, workdir):
    # Set-up is sampled before the first iteration and after each one, so
    # that its median spans the whole run rather than one moment of it.
    setups = setup_samples(workdir, SETUP_SAMPLES)
    its = []
    start = time.monotonic()
    # Another iteration starts only if it is expected to end within --seconds,
    # so a run overruns only when its one obligatory iteration does.
    while not its or spent * (1 + 1 / len(its)) <= args.seconds:
        its.append(iteration(invocations, "plain", workdir))
        setups += setup_samples(workdir, SETUP_SAMPLES)
        spent = time.monotonic() - start
    walls = [it["wall"] for it in its]
    setups += [s for it in its for s in it["setups"]]
    attempted = sum(it["attempted"] for it in its)
    failed = sum(it["failed"] for it in its)
    isolated = all(it["isolated"] for it in its)
    metrics = {
        "verdict_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(it["rss_kb"] for it in its) / 1024,
    }
    notes = {
        "verdict_s": "median of %d iteration(s); %s" % (len(walls), tail_text(walls)),
        "setup_s": "median of %d set-ups" % len(setups),
        "peak_rss_mb": "median over iterations of the largest child",
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print("  failed_share %d/%d = %.4f" % (failed, attempted, failed / attempted))
    print("  untraced children imported no tracing code: %s" % isolated)
    return emit(failed == 0 and isolated, attempted, failed, metrics, units, notes)


def traced(args, bench, invocations, rng, workdir):
    plain = iteration(invocations, "plain", workdir)
    tr = iteration(invocations, "trace", workdir)
    extra = {"trace.overhead_s": tr["wall"] - plain["wall"]}
    extra.update(scalar_probe(rng))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    stats, counts = summed(tr["traces"])
    metrics = {name: extra[name] if name in extra else layer_value(name, stats, counts)
               for name in units}
    attempted = plain["attempted"] + tr["attempted"]
    failed = plain["failed"] + tr["failed"]
    correct = failed == 0 and plain["isolated"] and len(tr["traces"]) == len(invocations)
    print("  failed_share %d/%d = %.4f" % (failed, attempted, failed / attempted))
    return emit(correct, attempted, failed, metrics, units, {})


def emit(correct, attempted, failed, metrics, units, notes):
    for name, value in metrics.items():
        print("  %-40s %14.6f %-6s %s" % (name, value, units[name], notes.get(name, "")))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finegrading", "cli.py")):
        print("error: no finegrading source under %s" % SRC, file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    try:
        return run(args, bench, reference)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
