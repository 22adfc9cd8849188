"""Command-line front end.

Subcommands: ``build`` (serialize a model and round-trip check it),
``theorem-check`` (catalog gradings plus the supporting structural and
finite-group checks for one of f4/g3/d21a), ``clifford-class`` (dual-route
classification of a graded quadratic configuration file), and
``grading-report`` (catalog dump).  ``--alpha`` (the d21a parameter) is
taken by ``build``, ``theorem-check`` and ``grading-report``; ``--model`` (the
F(4) model) by ``build`` only, since ``theorem-check f4`` checks all three.
``theorem-check f4`` and ``g3`` build each model once: inside
:class:`~finegrading.constructions.shared_builds` the axiom records build the
models and the catalog takes each one over; the records keep their order.
Exit code 0 iff every check passes; usage problems exit 2.  When stdout is
closed before the report is written (``| head``), the run exits 1 without a
traceback.
"""

import argparse
import os
import sys
import time

from . import report
from .abgroup import parse_group
from .clifford import (
    build_even_clifford,
    dim7_case_classify,
    division_class,
    normalize_quadratic_basis,
    verify_octonion_clifford_model,
    verify_quaternion_clifford_model,
)
from .constructions import (
    build_D21,
    build_F4,
    build_G3,
    build_kac,
    shared_builds,
    verify_tkk_iso_lemma,
)
from .errors import (
    AlgebraError,
    CliffordError,
    FineGradingError,
    GroupError,
    ScalarError,
)
from .gradings import catalog
from .groups import (
    f2_subspace_cases,
    maximal_abelian_FxQ82K,
    maximal_abelian_Q83K,
)
from .scalars import ALPHA, MINUS_ONE, ZERO, parse_scalar
from .superalg import check_lie_super, dumps_algebra, load_algebra, save_algebra

_MODELS = ("cayley", "tkk", "quaternion")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finegrading",
        description="exact fine-grading verification for the exceptional "
        "simple Lie superalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", default=None, help=out_help)

    def alpha(p):
        p.add_argument("--alpha", metavar="SCALAR", default=None,
                       help="parameter for d21a (scalar literal, not 0 or -1)")

    p = sub.add_parser("build", help="serialize a model algebra")
    p.add_argument("target", choices=("k3", "k10", "d21a", "g3", "f4"))
    alpha(p)
    p.add_argument("--model", choices=_MODELS, default=None,
                   help="F(4) model (f4 target only; default cayley)")
    common(p, "destination file for the serialized algebra (required)")

    p = sub.add_parser("theorem-check",
                       help="verify the grading theorem for one algebra")
    p.add_argument("target", choices=("f4", "g3", "d21a"))
    alpha(p)
    common(p, "write the report to this file instead of stdout")

    p = sub.add_parser("clifford-class",
                       help="classify a graded quadratic configuration file")
    p.add_argument("config", metavar="FILE")
    common(p, "write the report to this file instead of stdout")

    p = sub.add_parser("grading-report", help="dump the grading catalog")
    p.add_argument("target", nargs="?", default="all",
                   choices=("f4", "g3", "d21a", "all"))
    alpha(p)
    common(p, "write the report to this file instead of stdout")
    return parser


def _parse_alpha(parser, args):
    if args.alpha is None:
        return None
    # the target "all" (grading-report) passes alpha on to d21a only
    if args.target not in ("d21a", "all"):
        parser.error("--alpha only applies to the d21a target")
    try:
        value = parse_scalar(args.alpha)
    except ScalarError as exc:
        parser.error("--alpha: %s" % exc)
    if value == ZERO or value == MINUS_ONE:
        parser.error("--alpha must be a scalar other than 0 and -1")
    return value


def _fmt_type(t):
    return "(" + ", ".join(str(n) for n in t) + ")"


def _catalog_records(target, alpha):
    recs = []
    for ent in catalog(target, alpha=alpha, strict=False):
        expected = "group %s, type %s" % (
            ent["expected_group"], _fmt_type(ent["expected_type"]))
        actual = "group %s, type %s" % (
            ent["realized_group"], _fmt_type(ent["realized_type"]))
        recs.append(report.record(
            ent["name"], ent["status"], expected, actual, ent["witness"]))
    return recs


def _axiom_record(name, built, dim, even, odd):
    A = built.algebra
    expected = "dim %d = %d+%d, super axioms exact" % (dim, even, odd)
    try:
        check_lie_super(A)
    except AlgebraError as exc:
        return report.record(name, "fail", expected, "axiom violation",
                             witness=str(exc))
    neven = sum(1 for p in A.parity if p == 0)
    actual = "dim %d = %d+%d, super axioms exact" % (
        A.dim, neven, A.dim - neven)
    status = "pass" if actual == expected else "fail"
    return report.record(name, status, expected, actual)


def _dict_record(name, expected, result):
    ok = bool(result["ok"]) if isinstance(result, dict) else bool(result)
    return report.record(name, "pass" if ok else "fail", expected,
                         expected if ok else "check failed",
                         None if ok else repr(result))


def _theorem_records(target, alpha):
    if target == "d21a":
        recs = _catalog_records(target, alpha)
        built = build_D21(ALPHA if alpha is None else alpha)
        recs.append(_axiom_record("axioms-d21a", built, 17, 9, 8))
        recs.append(_dict_record(
            "groups-q8cubed-mod-k", "135 maximal abelian subgroups, all "
            "Z_2^2 x Z_4, 3 orbits", maximal_abelian_Q83K()))
        torus = maximal_abelian_FxQ82K()
        recs.append(_dict_record(
            "groups-f2-lemma-blocks2", "two exclusive families",
            torus["cases"]))
        recs.append(_dict_record(
            "groups-f2-lemma-blocks3", "three exclusive maximal families",
            f2_subspace_cases(3)))
        recs.append(_dict_record(
            "groups-torus-q8sq-mod-k", "two families of maximal abelian "
            "subgroups", torus))
        return recs
    # the axiom records build each model and the catalog takes it over
    with shared_builds():
        if target == "g3":
            axioms = [_axiom_record("axioms-g3", build_G3(), 31, 17, 14)]
        else:
            axioms = [_axiom_record("axioms-f4-%s" % model, build_F4(model),
                                    40, 24, 16) for model in _MODELS]
        recs = _catalog_records(target, alpha) + axioms
    if target == "f4":
        recs.append(_dict_record(
            "octonion-clifford-model",
            "even Clifford algebra of the trace-zero octonions is End(C)",
            verify_octonion_clifford_model()))
        recs.append(_dict_record(
            "quaternion-clifford-model",
            "quaternion model maps onto End_Q(Q (x) Q) with compatible "
            "skew-hermitian form", verify_quaternion_clifford_model()))
        recs.append(_dict_record(
            "tkk-orthogonal-lemma",
            "bijective Lie homomorphism onto so(U, q)",
            verify_tkk_iso_lemma()))
    return recs


def _cmd_build(args, parser):
    alpha = _parse_alpha(parser, args)
    if args.model is not None and args.target != "f4":
        parser.error("--model only applies to the f4 target")
    if args.out is None:
        parser.error("build requires --out")
    target = args.target
    if target == "k3":
        built = build_kac()[0]
    elif target == "k10":
        built = build_kac()[1]
    elif target == "d21a":
        built = build_D21(ALPHA if alpha is None else alpha)
    elif target == "g3":
        built = build_G3()
    else:
        built = build_F4(args.model or "cayley")
    alg = built.algebra
    save_algebra(alg, args.out)
    reloaded = load_algebra(args.out)
    same = dumps_algebra(reloaded) == dumps_algebra(alg)
    expected = "dim %d, identical after reload" % alg.dim
    actual = "dim %d, %s after reload" % (
        reloaded.dim, "identical" if same else "DIFFERENT")
    rec = report.record("build-%s" % target,
                        "pass" if same else "fail", expected, actual)
    return [rec], {"written": args.out}


def _config_error(path, lineno, message):
    print("error: %s:%d: %s" % (path, lineno, message), file=sys.stderr)
    raise SystemExit(1)


def _cmd_clifford_class(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(1)
    rows = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            rows.append((lineno, stripped))
    if not rows:
        _config_error(args.config, 1, "missing group literal line")
    try:
        group = parse_group(rows[0][1])
    except GroupError as exc:
        _config_error(args.config, rows[0][0], str(exc))
    degrees = []
    for lineno, text in rows[1:]:
        try:
            degrees.append(group.parse_element(text))
        except GroupError as exc:
            _config_error(args.config, lineno, str(exc))
    try:
        space = normalize_quadratic_basis(group, degrees)
        built = build_even_clifford(space)
        table_answer = dim7_case_classify(space)
        algebra_answer = division_class(built)
    except CliffordError as exc:
        rec = report.record("clifford-class", "error",
                            "agreeing dual classification", "error",
                            witness=str(exc))
        return [rec], {}
    agree = table_answer.tag == algebra_answer.tag
    rec = report.record(
        "clifford-class",
        "pass" if agree else "fail",
        "case table and algebra classifier agree",
        "case %s: table %s, algebra %s%s" % (
            table_answer.info["case"], table_answer.tag, algebra_answer.tag,
            "" if agree else " (DISAGREE)"),
        None if agree else "classifiers disagree",
    )
    extra = {
        "normalization_trace": list(space.trace),
        "case": table_answer.info["case"],
        "m": space.m,
        "rank": table_answer.info["rank"],
        "relation_pattern": str(table_answer.info["permutation"]),
        "disagreement": not agree,
    }
    return [rec], extra


def _dispatch(args, parser):
    if args.command == "build":
        return _cmd_build(args, parser)
    if args.command == "clifford-class":
        return _cmd_clifford_class(args)
    alpha = _parse_alpha(parser, args)
    if args.command == "theorem-check":
        return _theorem_records(args.target, alpha), {}
    # grading-report
    targets = ("f4", "g3", "d21a") if args.target == "all" else (args.target,)
    recs = []
    for t in targets:
        recs.extend(_catalog_records(t, alpha if t == "d21a" else None))
    return recs, {}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        records, extra = _dispatch(args, parser)
    except FineGradingError as exc:
        records = [report.record(args.command, "error", "completed run",
                                 "aborted", witness=str(exc))]
        extra = {}
    elapsed_ms = int((time.monotonic() - start) * 1000)
    command = args.command
    if getattr(args, "target", None):
        command += " " + str(args.target)
    text = report.render(command, records, fmt=args.format,
                         elapsed_ms=elapsed_ms, extra=extra)
    out_path = args.out if args.command != "build" else None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader went away: point stdout at os.devnull so that the
            # flush at interpreter exit does not raise again (Python's
            # ``signal`` docs, "Note on SIGPIPE")
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return 0 if report.all_pass(records) else 1


if __name__ == "__main__":
    sys.exit(main())
