"""One CLI invocation in a fresh interpreter, as a user would pay for it.

    python3 perfbench/child.py RESULT SPAWNED MODE [CLI ARGS...]

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up and the import of
``finegrading.cli``.  ``MODE`` is one of

* ``setup``   import only, run nothing;
* ``plain``   run ``finegrading.cli.main`` untraced;
* ``trace``   install ``tracer.Tracer`` first, then run it;
* ``profile`` run it under ``cProfile`` and keep its call counts, keyed
  ``module:line:function`` as ``tracer.Tracer.where`` names them.

The result (JSON) goes to ``RESULT``; the CLI's report goes wherever its own
``--out`` says.  The exit code is the CLI's.
"""

import functools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    result_path, spawned, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, SRC)
    import finegrading.cli

    setup_s = time.monotonic() - spawned
    out = {"setup_s": setup_s, "source": finegrading.cli.__file__}
    code = 0
    if mode != "setup":
        run = finegrading.cli.main
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer

            t = tracer.Tracer()
            t.install({name: sys.modules["finegrading." + name] for name in tracer.LAYERS})
            run = finegrading.cli.main  # now the traced wrapper
        elif mode == "profile":
            import cProfile

            prof = cProfile.Profile()
            run = functools.partial(prof.runcall, finegrading.cli.main)
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        if mode == "trace":
            out["trace"] = t.result()
        elif mode == "profile":
            import pstats

            calls = out["profile"] = {}
            for (f, line, fn), row in pstats.Stats(prof).stats.items():
                if os.path.abspath(f).startswith(SRC):
                    module = os.path.splitext(os.path.basename(f))[0]
                    calls["%s:%d:%s" % (module, line, fn)] = row[1]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Modules whose presence would mean tracing code ran in this process.
    out["tracing_modules"] = sorted(
        m for m in ("tracer", "cProfile", "profile", "pstats") if m in sys.modules
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
