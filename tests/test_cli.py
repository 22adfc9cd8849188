"""End-to-end tests of the command-line interface."""

import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from test_clifford import CONFIGS

from finegrading import cli, clifford, constructions, gradings
from finegrading.abgroup import GradingGroup
from finegrading.cli import main
from finegrading.errors import GradingError
from finegrading.linalg import Mat
from finegrading.superalg import SuperAlgebra, load_algebra

GOLDEN = pathlib.Path(__file__).parent / "golden"

FANO_CONFIG = """\
Z_2 x Z_2 x Z_2
([];[1,0,0])
([];[0,1,0])
([];[0,0,1])
([];[1,1,0])
([];[1,0,1])
([];[0,1,1])
([];[1,1,1])
"""


def assert_matches_golden(report, name):
    """``report`` (a ``--format json`` report) equals the committed report
    ``tests/golden/<name>.json`` byte for byte, apart from the elapsed_ms
    line that the committed copy leaves out."""
    lines = report.split("\n")
    kept = [line for line in lines if not line.startswith('  "elapsed_ms": ')]
    assert len(kept) == len(lines) - 1
    assert "\n".join(kept) == (GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8")


def test_theorem_check_g3(capsys):
    assert main(["theorem-check", "g3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)["records"]
    assert "axioms-g3" in [r["name"] for r in records]
    assert [r["status"] for r in records] == ["pass"] * 3
    assert_matches_golden(out, "theorem-check-g3")


def test_theorem_check_f4_builds_no_clifford_table(monkeypatch, capsys):
    # the octonion model's homomorphism follows from l_squares by the
    # universal property, so no full Clifford algebra table is needed
    def refuse(names, gram):
        raise AssertionError("clifford_algebra called for %d generators" % len(names))

    monkeypatch.setattr(clifford, "clifford_algebra", refuse)
    assert main(["theorem-check", "f4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)["records"]
    assert "octonion-clifford-model" in [r["name"] for r in records]
    assert all(r["status"] == "pass" for r in records)
    assert_matches_golden(out, "theorem-check-f4")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["d21a"], "theorem-check-d21a"),
        (["d21a", "--alpha=-(1/2)"], "theorem-check-d21a-alpha-minus-half"),
    ],
    ids=["symbolic", "alpha-minus-half"],
)
def test_theorem_check_d21a_matches_golden_report(argv, name, capsys):
    assert main(["theorem-check"] + argv + ["--format", "json"]) == 0
    assert_matches_golden(capsys.readouterr().out, name)


def count_calls(monkeypatch, module, name, counts):
    """Replace module.name by a wrapper that adds its calls to counts[name]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_theorem_check_f4_builds_each_model_once(monkeypatch, capsys):
    counts = {}
    for name in ("_build_f4_cayley", "_build_f4_tkk", "_build_f4_quaternion"):
        count_calls(monkeypatch, constructions, name, counts)
    # the axiom records call build_F4 through cli, the catalog through gradings
    for module in (cli, gradings):
        count_calls(monkeypatch, module, "build_F4", counts)
    catalog_records = cli._catalog_records

    def released(target, alpha):
        # the catalog takes over every model the axiom records built
        recs = catalog_records(target, alpha)
        assert constructions._SHARED == {}
        return recs

    monkeypatch.setattr(cli, "_catalog_records", released)
    assert main(["theorem-check", "f4", "--format", "json"]) == 0
    assert counts == {"build_F4": 6, "_build_f4_cayley": 1, "_build_f4_tkk": 1,
                      "_build_f4_quaternion": 1}
    assert constructions._SHARED is None
    assert_matches_golden(capsys.readouterr().out, "theorem-check-f4")


def test_theorem_check_g3_builds_g3_once(monkeypatch, capsys):
    counts = {}
    count_calls(monkeypatch, constructions, "_build_g3", counts)
    for module in (cli, gradings):
        count_calls(monkeypatch, module, "build_G3", counts)
    assert main(["theorem-check", "g3", "--format", "json"]) == 0
    assert counts == {"build_G3": 2, "_build_g3": 1}
    assert constructions._SHARED is None
    assert_matches_golden(capsys.readouterr().out, "theorem-check-g3")


def test_shared_builds_end_when_a_record_raises(monkeypatch, capsys):
    def broken(target, alpha):
        assert constructions._SHARED is not None
        raise GradingError("catalog broke")

    monkeypatch.setattr(cli, "_catalog_records", broken)
    assert main(["theorem-check", "g3", "--format", "json"]) == 1
    (rec,) = json.loads(capsys.readouterr().out)["records"]
    assert (rec["status"], rec["witness"]) == ("error", "catalog broke")
    assert constructions._SHARED is None


def test_no_dense_matrix_products_in_theorem_check_d21a(monkeypatch, capsys):
    # the eigenspace splits and automorphism orders run on sparse columns,
    # so dense matrix products and scalings may be switched off
    def refuse(self, other):
        raise AssertionError("dense Mat product or scaling called")

    monkeypatch.setattr(Mat, "__mul__", refuse)
    monkeypatch.setattr(Mat, "scale", refuse)
    for argv, name in [
        (["d21a"], "theorem-check-d21a"),
        (["d21a", "--alpha=-(1/2)"], "theorem-check-d21a-alpha-minus-half"),
    ]:
        assert main(["theorem-check"] + argv + ["--format", "json"]) == 0
        assert_matches_golden(capsys.readouterr().out, name)


def test_no_dense_vectors_in_theorem_check_f4_or_d21a(monkeypatch, capsys):
    # kernels, span coordinates and eigenvectors stay sparse from the
    # elimination to the structure tables, and the model builders write
    # sparse literals, so the conversions between dense and sparse vectors
    # and the dense element constructors may be switched off: in every
    # module that binds a conversion, and on the classes
    def refuse(*args, **kwargs):
        raise AssertionError("dense vector formed")

    for conversion in ("_dense", "_sparse"):
        binding = [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("finegrading.") and hasattr(mod, conversion)
        ]
        assert binding
        for mod in binding:
            monkeypatch.setattr(mod, conversion, refuse)
    monkeypatch.setattr(SuperAlgebra, "element", refuse)
    monkeypatch.setattr(Mat, "from_cols", refuse)
    for argv, name in [
        (["f4"], "theorem-check-f4"),
        (["d21a"], "theorem-check-d21a"),
        (["d21a", "--alpha=-(1/2)"], "theorem-check-d21a-alpha-minus-half"),
    ]:
        assert main(["theorem-check"] + argv + ["--format", "json"]) == 0
        assert_matches_golden(capsys.readouterr().out, name)


def test_theorem_check_d21a_omega_json(tmp_path):
    dest = tmp_path / "report.json"
    code = main([
        "theorem-check", "d21a", "--alpha", "z^4",
        "--format", "json", "--out", str(dest),
    ])
    assert code == 0
    payload = json.loads(dest.read_text())
    assert payload["command"] == "theorem-check d21a"
    names = [r["name"] for r in payload["records"]]
    assert names == sorted(names)
    assert "d21a-z-z3" in names
    assert "groups-q8cubed-mod-k" in names
    for r in payload["records"]:
        assert {"name", "status", "expected", "actual"} <= set(r)
        assert r["status"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-check", "d21a", "--alpha", "-1"],
        ["theorem-check", "d21a", "--alpha", "0"],
        ["theorem-check", "d21a", "--alpha", "not*a(scalar"],
        ["theorem-check", "e8"],
        ["theorem-check", "g3", "--alpha", "2"],
        ["theorem-check", "d21a", "--model", "tkk"],
        ["build", "k10"],
        ["theorem-check", "f4", "--model", "tkk"],
        ["clifford-class", "fano.cfg", "--alpha", "1"],
    ],
    ids=["alpha-minus1", "alpha-0", "alpha-garbage", "unknown-target",
         "alpha-for-g3", "model-for-d21a", "build-without-out",
         "model-for-theorem-check", "alpha-for-clifford-class"],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_hostile_alpha_exits_2_fast(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["theorem-check", "d21a", "--alpha=(a+z)^100000"])
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "exponent 100000 exceeds" in capsys.readouterr().err


def test_deeply_nested_alpha_is_a_usage_error(capsys):
    deep = "(" * 400 + "1" + ")" * 400
    with pytest.raises(SystemExit) as err:
        main(["theorem-check", "d21a", "--alpha=" + deep])
    assert err.value.code == 2
    assert "parenthesis nesting 65 exceeds 64" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "1 " + "2" * 10 ** 6,
    "2" * 10 ** 6 + "x",
    "(a+z)^17" + " " * 10 ** 6,
], ids=["trailing", "character", "limit"])
def test_megabyte_alpha_is_a_short_usage_error(text, capsys):
    with pytest.raises(SystemExit) as err:
        main(["theorem-check", "d21a", "--alpha", text])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--alpha" in stderr and "Traceback" not in stderr
    assert len(stderr) < 400


@pytest.mark.parametrize("text", [
    b"Z_" + b"9" * 5000 + b"\n([];[1])\n",
    b"Z_2\n([];[" + b"1" * 100000 + b"])\n",
    b"Z_2\n([];[1])\xff\xfe\n",
], ids=["modulus-digits", "element-line", "not-utf8"])
def test_hostile_clifford_config_is_a_short_error(text, tmp_path, capsys):
    cfg = tmp_path / "hostile.cfg"
    cfg.write_bytes(text)
    with pytest.raises(SystemExit) as err:
        main(["clifford-class", str(cfg)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert str(cfg) in stderr and "Traceback" not in stderr
    assert len(stderr) < 1000


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a file of the test's own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_without_a_traceback(tmp_path, monkeypatch):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        assert main(["grading-report", "g3", "--format", "json"]) == 1


def test_closed_pipe_of_a_real_process_leaves_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "finegrading.cli", "grading-report", "g3", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr


def test_build_k10_roundtrip(tmp_path):
    dest = tmp_path / "k10.alg"
    assert main(["build", "k10", "--out", str(dest)]) == 0
    assert load_algebra(str(dest)).dim == 10


def test_build_f4_tkk(tmp_path):
    dest = tmp_path / "f4.alg"
    assert main(["build", "f4", "--model", "tkk", "--out", str(dest)]) == 0
    assert load_algebra(str(dest)).dim == 40


def test_build_d21a_at_one(tmp_path):
    dest = tmp_path / "d21.alg"
    assert main(["build", "d21a", "--alpha", "1", "--out", str(dest)]) == 0
    assert load_algebra(str(dest)).dim == 17


def test_clifford_class_fano(tmp_path, capsys):
    cfg = tmp_path / "fano.cfg"
    cfg.write_text(FANO_CONFIG)
    assert main(["clifford-class", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "table F, algebra F" in out
    assert "m=0 r=3" in out
    assert "normalization_trace" in out


def test_clifford_class_json(tmp_path):
    cfg = tmp_path / "fano.cfg"
    cfg.write_text(FANO_CONFIG)
    dest = tmp_path / "out.json"
    code = main(["clifford-class", str(cfg), "--format", "json",
                 "--out", str(dest)])
    assert code == 0
    payload = json.loads(dest.read_text())
    assert payload["disagreement"] is False
    assert payload["case"] == "m=0 r=3"
    rec = payload["records"][0]
    assert {"name", "status", "expected", "actual"} <= set(rec)


def test_clifford_class_parse_error_has_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z_2 x Z_2\n([];[1,0])\nnonsense\n")
    with pytest.raises(SystemExit) as err:
        main(["clifford-class", str(cfg)])
    assert err.value.code == 1
    assert ":3:" in capsys.readouterr().err


def test_clifford_class_rejects_bad_group_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z_2 & Z_2\n([];[1,0])\n")
    with pytest.raises(SystemExit) as err:
        main(["clifford-class", str(cfg)])
    assert err.value.code == 1
    assert ":1:" in capsys.readouterr().err


def test_clifford_class_even_dimension_is_error(tmp_path, capsys):
    cfg = tmp_path / "even.cfg"
    cfg.write_text("Z_2\n([];[1])\n([];[1])\n")
    assert main(["clifford-class", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out


def test_clifford_class_nine_lines_is_error(tmp_path, capsys):
    cfg = tmp_path / "nine.cfg"
    cfg.write_text("Z_2\n" + "([];[0])\n" * 9)
    assert main(["clifford-class", str(cfg)]) == 1
    assert "dimension 9 quadratic space is out of scope" in capsys.readouterr().out


def test_clifford_class_long_config_is_rejected_before_parsing(tmp_path, capsys):
    # only the group line and seven element lines are kept, so the malformed
    # last line is never parsed and memory does not grow with the file
    cfg = tmp_path / "long.cfg"
    cfg.write_text("Z_2\n" + "([];[1])\n" * 99999 + "nonsense\n")
    tracemalloc.start()
    try:
        code = main(["clifford-class", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "dimension 100000 quadratic space is out of scope" in capsys.readouterr().out
    assert peak < 1 << 20


def test_clifford_class_wide_line_is_rejected_before_it_is_read(tmp_path, capsys):
    # a line is read with a length bound, so memory does not grow with it
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("Z_2\n([];[" + "1" * 5_000_000 + "])\n")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main(["clifford-class", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "%s:2: line longer than" % cfg in stderr
    assert len(stderr) < 1000
    assert peak < 2 << 20


def test_config_lines_keep_their_splitlines_numbers(monkeypatch, capsys):
    # at a bound of 4 characters the reader cuts lines into several chunks;
    # every separator of str.splitlines still ends a line, "\r\n" is one
    monkeypatch.setattr(cli, "MAX_LINE", 4)
    text = "ab\x85cd\r\nabcd\x1c\x1cxy\rz\u2028\nw"
    fh = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    got = [(n, line.strip()) for n, line in cli._config_lines(fh, "f")]
    assert got == list(enumerate(text.replace("\r\n", "\n").splitlines(), 1))
    fh = io.TextIOWrapper(io.BytesIO("ab\x85abcd\nx\x85abcde\n".encode("utf-8")),
                          encoding="utf-8")
    with pytest.raises(SystemExit):
        list(cli._config_lines(fh, "f"))
    assert capsys.readouterr().err == "error: f:4: line longer than 4 characters\n"


def test_grading_report_d21a(capsys):
    assert main(["grading-report", "d21a"]) == 0
    out = capsys.readouterr().out
    assert "d21a-z-z2^2-ideal3" in out
    assert "5/5 checks passed" in out


def test_grading_report_all_passes_alpha_to_d21a(tmp_path):
    every, alone = tmp_path / "all.json", tmp_path / "d21a.json"
    assert main(["grading-report", "--alpha", "1", "--format", "json",
                 "--out", str(every)]) == 0
    assert main(["grading-report", "d21a", "--alpha", "1", "--format", "json",
                 "--out", str(alone)]) == 0
    records = json.loads(every.read_text())["records"]
    d21a = [r for r in records if r["name"].startswith("d21a")]
    assert d21a and len(d21a) < len(records)
    assert d21a == json.loads(alone.read_text())["records"]


def test_no_dense_products_in_theorem_check_f4_or_clifford_class(
    monkeypatch, capsys, tmp_path
):
    # every product of these runs is read off a structure table, so the
    # dense element API may be switched off without changing any answer
    def refuse(self, x, y):
        raise AssertionError("dense SuperAlgebra.multiply called")

    monkeypatch.setattr(SuperAlgebra, "multiply", refuse)
    monkeypatch.setattr(SuperAlgebra, "bracket", refuse)
    assert main(["theorem-check", "f4", "--format", "json"]) == 0
    assert_matches_golden(capsys.readouterr().out, "theorem-check-f4")

    runs = [(FANO_CONFIG, "F", "m=0 r=3")]
    for _, free_rank, moduli, coords, tag, case in CONFIGS:
        G = GradingGroup(free_rank, moduli)
        lines = [G.literal()] + [G.element(f, t).literal() for f, t in coords]
        runs.append(("\n".join(lines) + "\n", tag, case))
    for k, (text, tag, case) in enumerate(runs):
        cfg, dest = tmp_path / ("%d.cfg" % k), tmp_path / ("%d.json" % k)
        cfg.write_text(text)
        code = main(["clifford-class", str(cfg), "--format", "json", "--out", str(dest)])
        payload = json.loads(dest.read_text())
        assert code == 0 and payload["case"] == case
        assert payload["records"][0]["actual"] == "case %s: table %s, algebra %s" % (
            case, tag, tag)
