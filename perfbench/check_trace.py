"""Trace-completeness check: traced counts must equal cProfile's.

    python3 perfbench/check_trace.py

For every invocation of ``theorem-f4`` and ``theorem-d21a``, one child runs
with the tracer installed and one runs the same invocation untraced under
``cProfile``.  A wrapper that misses a name bound in another module (or captured before the
tracer was installed) shows as a traced count below cProfile's count of the
same function.  Every traced span and counter is compared; the counts the
benchmark documents are also checked against fixed values.  Exits 0 only if
everything matches.  Takes several minutes: cProfile slows ``theorem-f4``
about fourfold.
"""

import os
import random
import shutil
import sys
import tempfile

import run

# Names each workload must trace, with the count (summed over its
# invocations) fixed at the commit that added the benchmark; None asks only
# that the name is traced and agrees with cProfile.
REQUIRED = {
    "theorem-f4": {
        "constructions.build_F4": 6,
        "superalg.check_lie_super": 4,
        "gradings.grading_from_diag": 2,
    },
    "theorem-d21a": {"gradings.grading_from_diag": None},
}
PROFILE_TIMEOUT_S = 1800


def compare(trace, profile):
    """{name: (traced count, cProfile count)} for every traced name."""
    out = {}
    for name, locations in trace["where"].items():
        traced = trace["stats"][name][0] if name in trace["stats"] else trace["counts"][name]
        out[name] = (traced, sum(profile.get(loc, 0) for loc in locations))
    return out


def check(workload, reference, workdir):
    problems = []
    totals = {}
    invocations = run.plan(workload, reference, random.Random(0))
    for i, (argv, _) in enumerate(invocations):
        _, traced, code_t = run.spawn("trace", argv, workdir, "t%d" % i)
        _, profiled, code_p = run.spawn("profile", argv, workdir, "p%d" % i,
                                        timeout=PROFILE_TIMEOUT_S)
        if code_t or code_p or traced is None or profiled is None:
            problems.append("%s %r: child failed (exit %s/%s)" % (workload, argv, code_t, code_p))
            continue
        for name, (t, p) in compare(traced["trace"], profiled["profile"]).items():
            if t != p:
                problems.append("%s %r: %s traced %d, cProfile %d" % (workload, argv, name, t, p))
            totals[name] = totals.get(name, 0) + t
    for name, want in REQUIRED[workload].items():
        got = totals.get(name)
        print("%s: %s traced %s" % (workload, name, got))
        if got is None or (want is not None and got != want):
            problems.append("%s: %s traced %s, expected %s" % (workload, name, got, want))
    print("%s: %d traced names compared over %d invocation(s)"
          % (workload, len(totals), len(invocations)))
    return problems


def main():
    reference = run.load_json(os.path.join(run.HERE, "reference.json"))
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="check-", dir=run.OUT)
    problems = []
    try:
        for workload in sorted(REQUIRED):
            problems += check(workload, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("MISMATCH " + p)
    print("trace completeness: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
