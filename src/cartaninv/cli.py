"""Command-line interface.

Exit status contract: 0 = success/verified, 1 = verification failed,
2 = usage error, 3 = budget exceeded.  Output for a fixed job is
deterministic; "structured" output is the canonical JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import serialize
from .algebras import build
from .errors import (
    UNLIMITED,
    Budget,
    BudgetExceededError,
    NotInSpanError,
    ParameterError,
    SerializationError,
)
from .modular import FieldParams
from .pipeline import conjecture_sweep, delta_star, independence_report
from .symalg import SymPolynomial, check_generator_sh, check_generator_w

EX_OK, EX_FAIL, EX_USAGE, EX_BUDGET = 0, 1, 2, 3


def _build_algebra(args, kind, budget=UNLIMITED):
    params = FieldParams(args.p, args.n, args.m)
    if args.store:
        cached = serialize.load_algebra(args.store, kind, params)
        if cached is not None:
            return cached
    algebra = build(kind, params, budget=budget)
    if args.store:
        serialize.save_structure_constants(args.store, algebra)
    return algebra


def _emit(doc) -> None:
    sys.stdout.write(serialize.dumps_canonical(doc))


class _StoredRecordFailed(Exception):
    """A stored record failed verification; ``main`` exits 1 with its message."""


def _load_verified_record(store, hbar, label, budget):
    """The stored record for ``label`` after ``verify(hbar, budget)``, or None
    if absent.  A stored document that holds another label is refused."""
    record = serialize.load_record(store, hbar, label)
    if record is not None:
        if record.label != label:
            raise _StoredRecordFailed(
                f"stored record for {label} holds {record.label}")
        try:
            record.verify(hbar, budget)
        except ValueError as exc:
            raise _StoredRecordFailed(
                f"stored record failed verification: {exc}") from exc
    return record


# -- commands ---------------------------------------------------------------------

def _cmd_basis(args) -> int:
    algebra = _build_algebra(args, args.algebra)
    if args.output == "structured":
        _emit(serialize.basis_document(algebra))
        return EX_OK
    for i, b in enumerate(algebra.basis):
        print(f"{i:3d}  {b.label:<18} grade {b.grade:+d}")
    print(f"dim = {algebra.dim}, top grade r = {algebra.r}")
    return EX_OK


def _cmd_bracket_table(args) -> int:
    algebra = _build_algebra(args, args.algebra)
    if args.output == "structured":
        _emit(serialize.sc_document(algebra))
        return EX_OK
    for i, j, row in algebra.stored_rows():
        rhs = " + ".join(f"{c}*{algebra.basis[k].label}" for k, c in row)
        print(f"[{algebra.basis[i].label}, {algebra.basis[j].label}] = {rhs}")
    return EX_OK


def _cmd_invariant_compute(args) -> int:
    budget = Budget(args.max_terms, args.max_seconds)
    algebra = _build_algebra(args, "Hbar", budget)
    if args.store:
        for label in (f"Delta_{args.power}", f"Delta_{args.power}_star"):
            stored = _load_verified_record(args.store, algebra, label, budget)
            if stored is not None:
                _output_record(args, stored, "verified against store")
                return EX_OK
    result = delta_star(args.power, algebra, budget)
    if result.status == "zero":
        print(f"{result.label}: trivial ({result.detail})")
        return EX_OK
    if result.status == "not-invariant":
        idx, img = result.witness
        lbl = img.algebra.basis[idx].label
        print(f"{result.label}: candidate is not invariant; ad({lbl}) != 0 "
              f"({result.detail})", file=sys.stderr)
        return EX_FAIL
    # rendered once: the stored file and the structured output are one text
    text = serialize.record_text(result.record) if args.output == "structured" else None
    if args.store:
        serialize.save_record(args.store, result.record, text)
    _output_record(args, result.record, "computed", text)
    return EX_OK


def _output_record(args, record, src: str, text: str | None = None) -> None:
    """Print the record; ``text`` is its ``record_text``, when already rendered."""
    if args.output == "structured":
        sys.stdout.write(serialize.record_text(record) if text is None else text)
        return
    print(f"{record.label} ({src}): {record.term_count} terms, "
          f"lambda = {record.lambda_value}, phi removed p^{record.p_power_m}")
    print("invariant = " + serialize.render_text(record.invariant))
    print("generator = " + serialize.render_text(record.generator))


def _cmd_invariant_verify(args) -> int:
    budget = Budget(args.max_terms, args.max_seconds)
    doc = json.loads(Path(args.record_file).read_text())
    hbar = build("Hbar", serialize.record_params(doc), budget=budget)
    record = serialize.document_to_record(doc, hbar)
    try:
        record.verify(hbar, budget)
    except ValueError as exc:
        print(f"{record.term_count} terms, invariant: no ({exc})")
        return EX_FAIL
    print(f"{record.term_count} terms, invariant: yes")
    return EX_OK


def _cmd_generator_check(args) -> int:
    algebra = _build_algebra(args, args.algebra)
    if args.var is not None:
        if args.var not in algebra.index:
            raise ParameterError(f"unknown basis label {args.var!r}")
        F = SymPolynomial.from_label(algebra, args.var)
    else:
        doc = json.loads(Path(args.poly_file).read_text())
        F = serialize.document_to_poly(doc, algebra)
    check = check_generator_w(F) if algebra.kind == "W" else check_generator_sh(F)
    if check.ok:
        print("generator conditions hold")
        return EX_OK
    for desc, defect in check.failures[:5]:
        print(f"FAIL {desc}: {serialize.render_text(defect)}")
    if len(check.failures) > 5:
        print(f"... and {len(check.failures) - 5} more failures")
    return EX_FAIL


def _cmd_independence(args) -> int:
    if not args.store:
        raise ParameterError("independence needs --store with saved records")
    budget = Budget(args.max_terms, args.max_seconds)
    hbar = _build_algebra(args, "Hbar", budget)
    records = []
    for label in args.labels:
        rec = _load_verified_record(args.store, hbar, label, budget)
        if rec is None:
            raise ParameterError(f"no stored record for {label}")
        records.append(rec)
    report = independence_report(records, budget)
    _print_independence(report)
    return EX_OK if report.all_independent else EX_FAIL


def _print_independence(report) -> None:
    for entry in report.entries:
        print(f"{entry.label}: degree {entry.degree}, lambda {entry.lambda_value} "
              f"-> {entry.decision}")
        for cand in entry.candidates:
            mark = "matches" if cand.lambda_match else "differs"
            print(f"    candidate {cand.expression}: lambda {cand.lambda_value} "
                  f"({mark})")
        if entry.dependency:
            combo = " + ".join(f"{c}*{e}" for e, c in entry.dependency.items())
            print(f"    dependency: {entry.label} = {combo}")
    print(f"independent records: {report.independent_count} of {len(report.entries)}")


def _cmd_conjecture(args) -> int:
    report = conjecture_sweep(args.p, Budget(args.max_terms, args.max_seconds))
    for res in report.results:
        if res.status == "ok":
            rec = res.record
            print(f"power {res.power}: {rec.label} ok, {rec.term_count} terms, "
                  f"lambda {rec.lambda_value}, phi removed p^{rec.p_power_m}")
        else:
            print(f"power {res.power}: {res.label} {res.status} ({res.detail})")
    if report.independence is not None:
        _print_independence(report.independence)
    print(f"independent invariants: {report.independent_count}, "
          f"external index value: {report.index_value}, "
          f"match: {'yes' if report.matches_index else 'no'}")
    if args.store:
        for rec in report.records:
            serialize.save_record(args.store, rec)
    if not report.completed:
        print(f"partial results: {report.note}", file=sys.stderr)
        return EX_BUDGET
    return EX_OK


# -- arguments --------------------------------------------------------------------

def _heights(text):
    """``--m``: comma-separated heights, e.g. ``1,1``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _labels(text):
    """``--labels``: comma-separated distinct record labels, each ``Delta_<i>``
    or ``Delta_<i>_star``, checked because they become store file names."""
    labels = tuple(x for x in text.split(",") if x)
    if not labels:
        raise argparse.ArgumentTypeError("expected at least one record label")
    for k, label in enumerate(labels):
        digits = label[len("Delta_"):].removesuffix("_star")
        if not (label.startswith("Delta_") and digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(
                f"bad record label {label!r}: expected Delta_<i> or Delta_<i>_star")
        if label in labels[:k]:
            raise argparse.ArgumentTypeError(f"repeated record label {label!r}")
    return labels


def _at_least_zero(kind):
    """A budget flag's converter: a ``kind`` value >= 0.  NaN is refused, as a
    NaN deadline or term limit would never trip."""
    def parse(text):
        value = kind(text)
        if not value >= 0:  # true for NaN as well
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


@functools.cache  # built on the first call; parse_args keeps no state
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cartaninv",
        description="Cartan-type modular Lie algebras and their symmetric invariants",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    flags = {
        "--algebra": dict(choices=["W", "S", "H", "Hbar"], default="Hbar"),
        "--p": dict(type=int, default=3),
        "--n": dict(type=int, default=2),
        "--m": dict(type=_heights, default=(1, 1),
                    help="comma-separated heights, e.g. 1,1"),
        "--output": dict(choices=["text", "structured"], default="text"),
        "--store": dict(help=f"store directory (default ${serialize.STORE_ENV})"),
        "--max-terms": dict(type=_at_least_zero(int), default=None),
        "--max-seconds": dict(type=_at_least_zero(float), default=None),
    }

    def command(name, runner, summary, *names):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=runner)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        return sp

    params = ("--p", "--n", "--m")
    budget = ("--max-terms", "--max-seconds")
    command("basis", _cmd_basis, "print the ordered basis and grading",
            "--algebra", *params, "--output", "--store")
    command("bracket-table", _cmd_bracket_table,
            "print or store the structure constants",
            "--algebra", *params, "--output", "--store")
    sp = command("invariant-compute", _cmd_invariant_compute,
                 "run the Delta pipeline over Hbar for one power",
                 *params, "--output", "--store", *budget)
    sp.add_argument("--power", type=int, required=True)
    sp = command("invariant-verify", _cmd_invariant_verify,
                 "verify a stored invariant record file", *budget)
    sp.add_argument("record_file")
    sp = command("generator-check", _cmd_generator_check,
                 "check the generator criteria for a polynomial",
                 "--algebra", *params, "--store")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--var", help="single basis variable, e.g. u_{1,1}")
    source.add_argument("--poly", dest="poly_file",
                        help="path to a serialized polynomial")
    sp = command("independence", _cmd_independence,
                 "independence report over stored records",
                 *params, "--store", *budget)
    sp.add_argument("--labels", type=_labels, required=True,
                    help="comma-separated record labels")
    command("conjecture", _cmd_conjecture,
            "sweep all powers over Hbar_2(1,1) for one prime",
            "--p", "--store", *budget)
    return ap


def main(argv=None) -> int:
    """Run one command; returns the exit status per the contract above."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    if "store" in args and args.store is None:
        args.store = serialize.default_store()  # read when the command runs
    try:
        return args.run(args)
    except _StoredRecordFailed as exc:
        print(exc, file=sys.stderr)
        return EX_FAIL
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EX_BUDGET
    except (ParameterError, SerializationError, NotInSpanError, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        # OSError covers unreadable paths: missing files and directories
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
