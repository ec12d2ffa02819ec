"""The benchmark's workloads: rounds of CLI operations, each with the check
of its exit code and output against the computed truth in expected.json.

A check returns None when the operation is correct and a message otherwise.
The published claims are never the expected values: criterion 8 is refuted
(``Delta_4_star = 1*Delta_2^2`` at p = 5), so ``independence`` exiting 1 is
the correct outcome, as is ``Delta_10_star`` being not invariant at p = 7.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``{store}`` in argv is the round's store directory."""

    name: str
    argv: tuple
    check: object  # (exit code, stdout, store Path or None) -> None | str
    after: tuple = ()  # names of ops that must run earlier in the round


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: bool  # one unmeasured round first; False where a round is one long op
    # rounds measured at least, so that >= 100 operations are timed and
    # op_p90_s has ten samples above it
    min_rounds: int = 1

    @property
    def uses_store(self) -> bool:
        return any("{store}" in a for op in self.ops for a in op.argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(doc) -> str:
    """The canonical document format the fixtures are written in."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _exit(rc, want):
    return None if rc == want else f"exit {rc}, expected {want}"


# -- checks ------------------------------------------------------------------

def record_document(rec, documents):
    """invariant-compute --output structured: the record, byte for byte."""

    def check(rc, out, store):
        if rc != 0:
            return _exit(rc, 0)
        doc = json.loads(out)
        if doc["label"] != rec["label"] or doc["term_count"] != rec["term_count"]:
            return (f"got {doc['label']} with {doc['term_count']} terms, expected "
                    f"{rec['label']} with {rec['term_count']}")
        if "fixture" in rec and \
                sha256(canonical(doc[rec["fixture_part"]])) != rec["fixture_sha256"]:
            return f"{rec['fixture_part']} differs from {rec['fixture']}"
        if sha256(out) != rec["sha256"]:
            return "record document differs from the pinned one"
        if store is not None:
            if sha256((store / rec["file"]).read_text()) != rec["sha256"]:
                return f"stored {rec['file']} differs from the pinned record"
            sc = f"sc_Hbar_p{rec['p']}_n2_m1-1.json"
            if sha256((store / sc).read_text()) != documents[sc]:
                return f"stored {sc} differs from the pinned structure constants"
        return None

    return check


def record_from_store(rec):
    """invariant-compute on a stored record: re-verified, text output."""
    want = f"{rec['label']} (verified against store): {rec['term_count']} terms,"

    def check(rc, out, store):
        if rc != 0:
            return _exit(rc, 0)
        first = out.splitlines()[0] if out else ""
        return None if first.startswith(want) else f"first line {first!r}"

    return check


def record_verified(rec):
    want = f"{rec['term_count']} terms, invariant: yes"

    def check(rc, out, store):
        if rc != 0:
            return _exit(rc, 0)
        return None if out.strip() == want else f"output {out.strip()!r}"

    return check


def sweep(exp):
    """conjecture --p P, text output: every power's outcome and the verdict."""
    want = [f"power {i}: {label} ok, {n} terms," for i, label, n in exp["ok"]]
    want += [f"power {i}: {label} not-invariant (ad({w}) does not vanish"
             for i, label, w in exp["not_invariant"]]
    want += [f"    dependency: {exp['dependency']}",
             f"independent invariants: {exp['independent']},"]

    def check(rc, out, store):
        if rc != 0:
            return _exit(rc, 0)
        lines = out.splitlines()
        for prefix in want:
            if not any(line.startswith(prefix) for line in lines):
                return f"no line starting {prefix!r}"
        return None

    return check


def independence(exp):
    def check(rc, out, store):
        if rc != exp["exit"]:
            return _exit(rc, exp["exit"])
        lines = out.splitlines()
        if f"    dependency: {exp['dependency']}" not in lines:
            return f"missing dependency {exp['dependency']!r}"
        return None if lines[-1:] == [exp["summary"]] else f"last line {lines[-1:]}"

    return check


def document(digest):
    def check(rc, out, store):
        if rc != 0:
            return _exit(rc, 0)
        return None if sha256(out) == digest else "document differs from the pinned one"

    return check


def generator_witness(exp):
    def check(rc, out, store):
        if rc != exp["exit"]:
            return _exit(rc, exp["exit"])
        first = out.splitlines()[0] if out else ""
        return None if first == exp["witness"] else f"first failure {first!r}"

    return check


# -- workloads ---------------------------------------------------------------

def _compute_argv(rec, *extra):
    return ("invariant-compute", "--p", str(rec["p"]), "--power", str(rec["power"]),
            *extra)


def sweep_p7(exp):
    return Workload("sweep_p7", (
        Op("conjecture.p7", ("conjecture", "--p", "7"), sweep(exp["sweeps"]["7"])),
    ), warmup=False)


def series_p5(exp):
    recs, docs = exp["records"], exp["documents"]
    ops = [
        Op(f"compute.{key}", _compute_argv(recs[key], "--output", "structured"),
           record_document(recs[key], docs))
        for key in ("p3.Delta_2", "p5.Delta_2", "p5.Delta_4_star", "p5.Delta_6_star")
    ]
    ops.append(Op("conjecture.p5", ("conjecture", "--p", "5"),
                  sweep(exp["sweeps"]["5"])))
    return Workload("series_p5", tuple(ops), warmup=True, min_rounds=20)


def store_cli(exp):
    recs, docs = exp["records"], exp["documents"]
    ops = []
    p5_keys = ("p5.Delta_2", "p5.Delta_4_star", "p5.Delta_6_star")
    # the first p = 5 store op builds Hbar and writes the sc cache; fixing which
    # op pays that keeps per-op latencies independent of the seed
    first_p5 = ("miss.p5.Delta_2",)
    for key in p5_keys + ("p7.Delta_4_star",):
        rec = recs[key]
        ops += [
            Op(f"miss.{key}",
               _compute_argv(rec, "--store", "{store}", "--output", "structured"),
               record_document(rec, docs),
               after=first_p5 if key.startswith("p5.") and key != "p5.Delta_2" else ()),
            Op(f"hit.{key}", _compute_argv(rec, "--store", "{store}"),
               record_from_store(rec), after=(f"miss.{key}",)),
            Op(f"verify.{key}", ("invariant-verify", "{store}/" + rec["file"]),
               record_verified(rec), after=(f"miss.{key}",)),
        ]
    ops += [
        Op("independence.p5",
           ("independence", "--p", "5", "--store", "{store}", "--labels",
            ",".join(recs[k]["label"] for k in p5_keys)),
           independence(exp["independence_p5"]),
           after=tuple(f"miss.{k}" for k in p5_keys)),
        Op("bracket-table.W.p7",
           ("bracket-table", "--algebra", "W", "--p", "7", "--output", "structured"),
           document(docs["bracket-table.W.p7"])),
        # byte-identical to the stored sc cache file it is rendered from
        Op("bracket-table.Hbar.p5",
           ("bracket-table", "--p", "5", "--store", "{store}", "--output", "structured"),
           document(docs["sc_Hbar_p5_n2_m1-1.json"]), after=first_p5),
        Op("basis.Hbar.p5",
           ("basis", "--p", "5", "--store", "{store}", "--output", "structured"),
           document(docs["basis.Hbar.p5"]), after=first_p5),
        Op("generator-check.p3",
           ("generator-check", "--p", "3", "--var", exp["generator_check_p3"]["var"]),
           generator_witness(exp["generator_check_p3"])),
    ]
    return Workload("store_cli", tuple(ops), warmup=True, min_rounds=6)


WORKLOADS = {w.__name__: w for w in (sweep_p7, series_p5, store_cli)}


def round_order(ops, rng):
    """A seeded order of one round that runs every op after its prerequisites."""
    done, order = set(), []
    pending = list(ops)
    while pending:
        ready = [op for op in pending if all(a in done for a in op.after)]
        op = rng.choice(ready)
        pending.remove(op)
        done.add(op.name)
        order.append(op)
    return order


def expand(argv, store: Path | None):
    return [a.replace("{store}", str(store)) for a in argv]

