"""Command-line interface.

Exit status contract: 0 = success/verified, 1 = verification failed,
2 = usage error, 3 = budget exceeded.  Output for a fixed job is
deterministic; "structured" output is the canonical JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import serialize
from .algebras import build
from .errors import (
    BudgetExceededError,
    NotInSpanError,
    ParameterError,
    SerializationError,
)
from .modular import FieldParams
from .pipeline import Budget, conjecture_sweep, delta_star, independence_report
from .symalg import SymPolynomial, check_generator_sh, check_generator_w, is_invariant

EX_OK, EX_FAIL, EX_USAGE, EX_BUDGET = 0, 1, 2, 3

COMMANDS = (
    "basis",
    "bracket-table",
    "invariant-compute",
    "invariant-verify",
    "generator-check",
    "independence",
    "conjecture",
)


@dataclass
class JobSpec:
    """A fully resolved CLI job; see the module docstring for the contract."""

    command: str
    kind: str = "Hbar"
    p: int = 3
    n: int = 2
    m: tuple = (1, 1)
    power: Optional[int] = None
    ring: str = "modp"
    output: str = "text"
    store: Optional[str] = None
    max_terms: Optional[int] = None
    max_seconds: Optional[float] = None
    var: Optional[str] = None
    poly_file: Optional[str] = None
    record_file: Optional[str] = None
    labels: tuple = field(default_factory=tuple)

    def params(self) -> FieldParams:
        return FieldParams(self.p, self.n, self.m)

    def budget(self) -> Optional[Budget]:
        if self.max_terms is None and self.max_seconds is None:
            return None
        return Budget(max_terms=self.max_terms, max_seconds=self.max_seconds)

    def clock(self):
        """A started clock for the job's budget, or None when unlimited."""
        budget = self.budget()
        return None if budget is None else budget.start()


def _build_algebra(spec: JobSpec, kind=None):
    kind = kind or spec.kind
    params = spec.params()
    if spec.store:
        cached = serialize.load_algebra(spec.store, kind, params)
        if cached is not None:
            return cached
    algebra = build(kind, params)
    if spec.store:
        serialize.save_structure_constants(spec.store, algebra)
    return algebra


def _emit(doc) -> None:
    sys.stdout.write(serialize.dumps_canonical(doc))


class _StoredRecordFailed(Exception):
    """A stored record failed verification; ``run`` exits 1 with its message."""


def _load_verified_record(store, hbar, label, clock=None):
    """The stored record for ``label`` after ``verify(clock)``, or None if
    absent."""
    record = serialize.load_record(store, hbar, label)
    if record is not None:
        try:
            record.verify(clock)
        except ValueError as exc:
            raise _StoredRecordFailed(
                f"stored record failed verification: {exc}") from exc
    return record


# -- commands ---------------------------------------------------------------------

def _cmd_basis(spec: JobSpec) -> int:
    algebra = _build_algebra(spec)
    if spec.output == "structured":
        doc = serialize.sc_document(algebra)
        del doc["rows"]
        doc["format"] = "cartaninv.basis"
        doc["r"] = algebra.r
        _emit(doc)
        return EX_OK
    for i, b in enumerate(algebra.basis):
        print(f"{i:3d}  {b.label:<18} grade {b.grade:+d}")
    print(f"dim = {algebra.dim}, top grade r = {algebra.r}")
    return EX_OK


def _cmd_bracket_table(spec: JobSpec) -> int:
    algebra = _build_algebra(spec)
    if spec.output == "structured":
        _emit(serialize.sc_document(algebra))
        return EX_OK
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            row = algebra.row_int(i, j)
            if not row:
                continue
            rhs = " + ".join(
                f"{c}*{algebra.basis[k].label}" for k, c in row
            )
            print(f"[{algebra.basis[i].label}, {algebra.basis[j].label}] = {rhs}")
    return EX_OK


def _cmd_invariant_compute(spec: JobSpec) -> int:
    if spec.kind != "Hbar":
        print("invariant-compute runs over the Hbar algebra", file=sys.stderr)
        return EX_USAGE
    if spec.power is None:
        print("--power is required", file=sys.stderr)
        return EX_USAGE
    clock = spec.clock()
    algebra = _build_algebra(spec)
    label_plain = f"Delta_{spec.power}"
    label_star = f"Delta_{spec.power}_star"
    if spec.store:
        stored = _load_verified_record(spec.store, algebra, label_plain, clock)
        if stored is None:
            stored = _load_verified_record(spec.store, algebra, label_star, clock)
        if stored is not None:
            _output_record(spec, stored, verified_from_store=True)
            return EX_OK
    result = delta_star(spec.power, algebra, clock)
    if result.status == "zero":
        print(f"{result.label}: trivial ({result.detail})")
        return EX_OK
    if result.status == "not-invariant":
        idx, img = result.witness
        lbl = img.algebra.basis[idx].label
        print(
            f"{result.label}: candidate is not invariant; ad({lbl}) != 0 "
            f"({result.detail})",
            file=sys.stderr,
        )
        return EX_FAIL
    if spec.store:
        serialize.save_record(spec.store, result.record)
    _output_record(spec, result.record, verified_from_store=False)
    return EX_OK


def _output_record(spec: JobSpec, record, verified_from_store: bool) -> None:
    if spec.output == "structured":
        _emit(serialize.record_to_document(record))
        return
    src = "verified against store" if verified_from_store else "computed"
    print(f"{record.label} ({src}): {record.term_count} terms, "
          f"lambda = {record.lambda_value}, phi removed p^{record.p_power_m}")
    print("invariant = " + serialize.render_text(record.invariant))
    print("generator = " + serialize.render_text(record.generator))


def _cmd_invariant_verify(spec: JobSpec) -> int:
    doc = json.loads(Path(spec.record_file).read_text())
    hbar = build("Hbar", serialize.record_params(doc))
    record = serialize.document_to_record(doc, hbar)
    try:
        record.verify()
    except ValueError as exc:
        print(f"{record.term_count} terms, invariant: no ({exc})")
        return EX_FAIL
    print(f"{record.term_count} terms, invariant: yes")
    return EX_OK


def _cmd_generator_check(spec: JobSpec) -> int:
    algebra = _build_algebra(spec)
    if spec.var is not None:
        if spec.var not in algebra.index:
            print(f"unknown basis label {spec.var!r}", file=sys.stderr)
            return EX_USAGE
        F = SymPolynomial.from_label(algebra, spec.var, spec.ring)
    elif spec.poly_file is not None:
        doc = json.loads(Path(spec.poly_file).read_text())
        F = serialize.document_to_poly(doc, algebra)
    else:
        print("generator-check needs --var or --poly", file=sys.stderr)
        return EX_USAGE
    check = check_generator_w(F) if algebra.kind == "W" else check_generator_sh(F)
    if check.ok:
        print("generator conditions hold")
        return EX_OK
    for desc, defect in check.failures[:5]:
        print(f"FAIL {desc}: {serialize.render_text(defect)}")
    if len(check.failures) > 5:
        print(f"... and {len(check.failures) - 5} more failures")
    return EX_FAIL


def _cmd_independence(spec: JobSpec) -> int:
    if not spec.store:
        print("independence needs --store with saved records", file=sys.stderr)
        return EX_USAGE
    if not spec.labels:
        print("--labels is required", file=sys.stderr)
        return EX_USAGE
    clock = spec.clock()
    hbar = _build_algebra(spec, kind="Hbar")
    records = []
    for label in spec.labels:
        rec = _load_verified_record(spec.store, hbar, label, clock)
        if rec is None:
            print(f"no stored record for {label}", file=sys.stderr)
            return EX_USAGE
        records.append(rec)
    report = independence_report(records, clock)
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


def _cmd_conjecture(spec: JobSpec) -> int:
    report = conjecture_sweep(spec.p, budget=spec.budget())
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
    if spec.store:
        for rec in report.records:
            serialize.save_record(spec.store, rec)
    if not report.completed:
        print(f"partial results: {report.note}", file=sys.stderr)
        return EX_BUDGET
    return EX_OK


_RUNNERS = {
    "basis": _cmd_basis,
    "bracket-table": _cmd_bracket_table,
    "invariant-compute": _cmd_invariant_compute,
    "invariant-verify": _cmd_invariant_verify,
    "generator-check": _cmd_generator_check,
    "independence": _cmd_independence,
    "conjecture": _cmd_conjecture,
}


def run(spec: JobSpec) -> int:
    """Execute a job; returns the exit status per the CLI contract."""
    try:
        return _RUNNERS[spec.command](spec)
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


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cartaninv",
        description="Cartan-type modular Lie algebras and their symmetric invariants",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, algebra_default="Hbar"):
        sp.add_argument("--algebra", choices=["W", "S", "H", "Hbar"],
                        default=algebra_default)
        sp.add_argument("--p", type=int, default=3)
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--m", default="1,1",
                        help="comma-separated heights, e.g. 1,1")
        sp.add_argument("--ring", choices=["int", "modp"], default="modp")
        sp.add_argument("--output", choices=["text", "structured"], default="text")
        sp.add_argument("--store", default=serialize.default_store(),
                        help=f"store directory (default ${serialize.STORE_ENV})")
        sp.add_argument("--max-terms", type=int, default=None)
        sp.add_argument("--max-seconds", type=float, default=None)

    common(sub.add_parser("basis", help="print the ordered basis and grading"))
    common(sub.add_parser("bracket-table",
                          help="print or store the structure constants"))
    sp = sub.add_parser("invariant-compute",
                        help="run the Delta pipeline for one power")
    common(sp)
    sp.add_argument("--power", type=int, required=True)
    sp = sub.add_parser("invariant-verify",
                        help="verify a stored invariant record file")
    sp.add_argument("record_file")
    sp = sub.add_parser("generator-check",
                        help="check the generator criteria for a polynomial")
    common(sp)
    sp.add_argument("--var", help="single basis variable, e.g. u_{1,1}")
    sp.add_argument("--poly", dest="poly_file",
                    help="path to a serialized polynomial")
    sp = sub.add_parser("independence",
                        help="independence report over stored records")
    common(sp)
    sp.add_argument("--labels", required=True,
                    help="comma-separated record labels")
    sp = sub.add_parser("conjecture", help="sweep all powers for one prime")
    common(sp)
    return ap


def _spec_from_args(args) -> JobSpec:
    spec = JobSpec(command=args.command)
    for name in ("p", "n", "ring", "output", "store", "max_terms",
                 "max_seconds", "power", "var", "poly_file", "record_file"):
        if hasattr(args, name):
            setattr(spec, name, getattr(args, name))
    if hasattr(args, "algebra"):
        spec.kind = args.algebra
    if hasattr(args, "m"):
        spec.m = tuple(int(x) for x in str(args.m).split(","))
    if getattr(args, "labels", None):
        spec.labels = tuple(x for x in args.labels.split(",") if x)
        for label in spec.labels:
            # labels become store file names
            digits = label[len("Delta_"):].removesuffix("_star")
            if not (label.startswith("Delta_") and digits.isascii()
                    and digits.isdigit()):
                raise ValueError(f"bad record label {label!r}: expected "
                                 f"Delta_<i> or Delta_<i>_star")
    return spec


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
