"""One committed digest of every CLI output.

``tests/golden/manifest.json`` maps each command line below to the SHA-256
of what it prints: the exit code, then the report with its one timing
masked (the ``"elapsed_ms"`` line of a JSON report is dropped, the ``(N ms)``
of a text report's totals line reads ``(N ms)``), then, for ``build``, the
written model file.  Every command runs in one process, in a shuffled order
fixed by a seed, inside a scratch directory that holds the configuration
files, so no output can lean on the cache state an earlier command left.

Rewrite the manifest after an intended change of output with
``PYTHONPATH=src python tests/test_manifest.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import tempfile

import pytest

from test_cli import FANO_CONFIG
from test_clifford import CONFIGS

from finegrading.abgroup import GradingGroup
from finegrading.cli import main

MANIFEST = pathlib.Path(__file__).parent / "golden" / "manifest.json"

QQQ_CONFIG = """\
Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2
([];[1,0,0,0,0,0])
([];[1,1,0,0,0,0])
([];[0,1,0,0,1,0])
([];[0,1,0,0,1,1])
([];[0,1,1,0,0,1])
([];[0,1,1,1,0,1])
([];[0,1,0,1,0,1])
"""


def _config_texts():
    texts = {"fano.cfg": FANO_CONFIG, "qqq.cfg": QQQ_CONFIG}
    for name, free_rank, moduli, coords, _, _ in CONFIGS:
        G = GradingGroup(free_rank, moduli)
        lines = [G.literal()] + [G.element(f, t).literal() for f, t in coords]
        texts[name + ".cfg"] = "\n".join(lines) + "\n"
    return texts


CONFIG_TEXTS = _config_texts()


def _commands():
    alphas = ([], ["--alpha=-(1/2)"], ["--alpha=1"], ["--alpha=-2"],
              ["--alpha=z^4"])
    runs = [["theorem-check", "f4"], ["theorem-check", "g3"]]
    runs += [["theorem-check", "d21a"] + alpha for alpha in alphas]
    runs.append(["grading-report"])
    runs += [["clifford-class", name] for name in CONFIG_TEXTS]
    argvs = [run + fmt for run in runs for fmt in ([], ["--format", "json"])]
    builds = (["k3"], ["k10"], ["d21a"], ["d21a", "--alpha=-2"], ["g3"],
              ["f4"], ["f4", "--model", "tkk"], ["f4", "--model", "quaternion"])
    argvs += [["build"] + b + ["--out", "model.json"] for b in builds]
    return {" ".join(argv): argv for argv in argvs}


COMMANDS = _commands()
SHUFFLED = sorted(COMMANDS)
random.Random(2011).shuffle(SHUFFLED)


def _masked(report, fmt):
    lines = report.split("\n")
    if fmt == "json":
        kept = [line for line in lines if not line.startswith('  "elapsed_ms": ')]
        assert len(kept) == len(lines) - 1
        return "\n".join(kept)
    masked, count = re.subn(r"^(\d+/\d+ checks passed) \(\d+ ms\)$",
                            r"\1 (N ms)", report, flags=re.M)
    assert count == 1
    return masked


def digest(argv):
    """SHA-256 of the exit code, the masked report and any written model
    of ``finegrading <argv>``, run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    fmt = "json" if "json" in argv else "text"
    text = "exit %d\n%s" % (code, _masked(out.getvalue(), fmt))
    if argv[0] == "build":
        text += pathlib.Path(argv[-1]).read_text(encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_configs(directory):
    for name, text in CONFIG_TEXTS.items():
        (pathlib.Path(directory) / name).write_text(text, encoding="utf-8")


def _committed():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("manifest")
    _write_configs(directory)
    return directory


def test_manifest_lists_every_command():
    assert sorted(_committed()) == sorted(COMMANDS)


@pytest.mark.parametrize("key", SHUFFLED)
def test_output_matches_manifest(key, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert digest(COMMANDS[key]) == _committed()[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        _write_configs(scratch)
        home = os.getcwd()
        os.chdir(scratch)
        try:
            digests = {key: digest(COMMANDS[key]) for key in SHUFFLED}
        finally:
            os.chdir(home)
    MANIFEST.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n",
                        encoding="utf-8")
    print("wrote %d digests to %s" % (len(digests), MANIFEST))
