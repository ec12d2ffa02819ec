import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import TripClock, random_poly
from cartaninv import algebras, cli, errors, pipeline, serialize
from cartaninv.cli import EX_BUDGET, EX_FAIL, EX_OK, EX_USAGE, main
from cartaninv.errors import Budget, SerializationError
from cartaninv.modular import FieldParams
from cartaninv.symalg import SymPolynomial


# -- documents -------------------------------------------------------------------

@pytest.mark.parametrize("ring", ["modp", "int"])
def test_poly_roundtrip(hbar_p3, w2_p3, ring):
    rng = random.Random(41)
    for alg in (hbar_p3, w2_p3):
        for _ in range(8):
            F = random_poly(rng, alg, ring=ring)
            doc = serialize.poly_to_document(F)
            assert serialize.document_to_poly(doc, alg) == F


def test_poly_document_shape(record_p3):
    doc = serialize.poly_to_document(record_p3.invariant)
    assert doc["format"] == "cartaninv.sympoly" and doc["version"] == 1
    assert doc["kind"] == "H" and doc["p"] == 3 and doc["m"] == [1, 1]
    assert "monomial" in doc["terms"][0] and "coefficient" in doc["terms"][0]
    # canonical term order: degrees never decrease
    degs = [sum(e for _, e in t["monomial"]) for t in doc["terms"]]
    assert degs == sorted(degs)


def test_poly_document_errors(hbar_p3, hbar_p5, record_p3):
    doc = serialize.poly_to_document(record_p3.invariant)
    with pytest.raises(SerializationError):
        serialize.document_to_poly(doc, hbar_p3)  # kind H vs Hbar
    with pytest.raises(SerializationError):
        serialize.document_to_poly(doc, hbar_p5.h_subalgebra)  # wrong p
    bad = json.loads(json.dumps(doc))
    bad["version"] = 99
    with pytest.raises(SerializationError):
        serialize.document_to_poly(bad, hbar_p3.h_subalgebra)
    bad = json.loads(json.dumps(doc))
    bad["terms"][0]["monomial"][0][0] = "u_{9,9}"
    with pytest.raises(SerializationError):
        serialize.document_to_poly(bad, hbar_p3.h_subalgebra)
    bad = json.loads(json.dumps(doc))
    bad["terms"][0]["monomial"][0][1] = 0
    with pytest.raises(SerializationError):
        serialize.document_to_poly(bad, hbar_p3.h_subalgebra)
    bad = json.loads(json.dumps(doc))
    bad["terms"].append(bad["terms"][0])
    with pytest.raises(SerializationError):
        serialize.document_to_poly(bad, hbar_p3.h_subalgebra)


def test_render_text(hbar_p3, record_p3):
    assert serialize.render_text(record_p3.invariant) == (
        "2*u_{0,1}*u_{2,1} + 2*u_{1,0}*u_{1,2} + 2*u_{0,2}*u_{2,0} + u_{1,1}^2"
    )
    assert serialize.render_text(SymPolynomial.zero(hbar_p3)) == "0"
    F = SymPolynomial(hbar_p3, "int", {((0, 1),): -3, ((1, 2),): 1})
    assert serialize.render_text(F) == "-3*u_{0,1} + u_{1,0}^2"
    G = SymPolynomial(hbar_p3, "int", {((0, 1),): 1, ((1, 1),): -3})
    assert serialize.render_text(G) == "u_{0,1} - 3*u_{1,0}"
    # a constant term prints as its coefficient
    one = SymPolynomial.one(hbar_p3, "int")
    assert serialize.render_text(one) == "1"
    assert serialize.render_text(one.scale(-2)) == "-2"
    K = one + SymPolynomial.from_label(hbar_p3, "u_{1,1}", "int")
    assert serialize.render_text(K) == "1 + u_{1,1}"
    assert serialize.render_text(K - one.scale(3)) == "-2 + u_{1,1}"
    # a coefficient of -1 prints as the sign alone, first or inside a sum
    N = SymPolynomial(hbar_p3, "int", {((0, 1),): -1, ((1, 2),): -1})
    assert serialize.render_text(N) == "-u_{0,1} - u_{1,0}^2"
    assert serialize.render_text(one - K) == "-u_{1,1}"
    assert serialize.render_text(one.scale(2) - K) == "1 - u_{1,1}"
    assert serialize.render_text(one.scale(-1)) == "-1"
    for poly in (record_p3.invariant, F, G, SymPolynomial.zero(hbar_p3), one, K, N):
        assert repr(poly) == serialize.render_text(poly)


def test_record_roundtrip(hbar_p3, record_p3):
    doc = serialize.record_to_document(record_p3)
    back = serialize.document_to_record(doc, hbar_p3)
    assert back.invariant == record_p3.invariant
    assert back.generator == record_p3.generator
    assert back.label == record_p3.label and back.power == 2
    back.verify(hbar_p3)


def test_sc_roundtrip(w1_p3, hbar_p3, s2_p3):
    for alg in (w1_p3, hbar_p3, s2_p3):
        doc = serialize.sc_document(alg)
        rebuilt = serialize.algebra_from_sc_document(doc, alg.kind, alg.params)
        assert rebuilt == alg
    doc = serialize.sc_document(w1_p3)
    doc["rows"][0][2] = [[1, 1]]
    with pytest.raises(SerializationError):
        serialize.algebra_from_sc_document(doc, "W", w1_p3.params)


def test_store_roundtrip(tmp_path, hbar_p3, record_p3):
    path = serialize.save_record(tmp_path, record_p3)
    assert path.exists()
    loaded = serialize.load_record(tmp_path, hbar_p3, "Delta_2")
    assert loaded.invariant == record_p3.invariant
    assert serialize.load_record(tmp_path, hbar_p3, "Delta_4_star") is None
    serialize.save_structure_constants(tmp_path, hbar_p3)
    cached = serialize.load_algebra(tmp_path, "Hbar", hbar_p3.params)
    assert cached == hbar_p3



def _drop_p(doc):
    del doc["p"]


def _m_not_list(doc):
    doc["m"] = 1


def _two_element_row(doc):
    doc["rows"][0].pop()


def _basis_entry_not_object(doc):
    doc["basis"][0] = "u_{0,0}"


def _filed_as_p5(doc):
    """The intact p = 3 document under the p = 5 file name."""
    return "Hbar", 5


def _filed_as_h(doc):
    """The intact Hbar document under the H file name."""
    return "H", 3


@pytest.mark.parametrize("mangle", [_drop_p, _m_not_list, _two_element_row,
                                    _basis_entry_not_object, _filed_as_p5,
                                    _filed_as_h])
def test_cli_malformed_sc_cache_exits_2(tmp_path, capsys, hbar_p3, mangle):
    # a mangler returns the (kind, p) the document is filed under, if not its own
    path = serialize.save_structure_constants(tmp_path, hbar_p3)
    doc = json.loads(path.read_text())
    kind, p = mangle(doc) or ("Hbar", 3)
    serialize.sc_path(tmp_path, kind, p, 2, (1, 1)).write_text(json.dumps(doc))
    argv = ["basis", "--algebra", kind, "--p", str(p), "--store", str(tmp_path)]
    assert main(argv) == EX_USAGE
    assert capsys.readouterr().err.startswith("error: ")

def _json_dumps_canonical(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_writer_matches_json_dumps_on_every_document(request, p):
    # dumps_canonical writes the canonical text directly; it must give the
    # bytes json.dumps gives for every document the package renders
    params = FieldParams(p, 2, (1, 1))
    docs = []
    for kind in ("W", "S", "H", "Hbar"):
        alg = algebras.build(kind, params, verify=False)
        docs += [serialize.sc_document(alg), serialize.basis_document(alg)]
    records = {3: lambda: [request.getfixturevalue("record_p3")],
               5: lambda: [r.record for r in
                           request.getfixturevalue("results_p5").values()],
               7: lambda: list(request.getfixturevalue("sweep_p7").records)}[p]()
    assert len(records) == {3: 1, 5: 3, 7: 4}[p]
    for rec in records:
        docs += [serialize.record_to_document(rec),
                 serialize.poly_to_document(rec.generator)]
        if rec.term_count < 10_000:  # the record nests the larger invariants
            docs.append(serialize.poly_to_document(rec.invariant))
    for doc in docs:
        assert serialize.dumps_canonical(doc) == _json_dumps_canonical(doc)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_record_text_is_the_canonical_record_document(request, p):
    # record_text writes each term list straight from the sorted terms: the
    # bytes of the record document, on the records of the series under
    # 10,000 terms and on a zero invariant beside a generator that holds a
    # constant term
    records = {3: lambda: [request.getfixturevalue("record_p3")],
               5: lambda: [r.record for r in
                           request.getfixturevalue("results_p5").values()],
               7: lambda: list(request.getfixturevalue("sweep_p7").records)}[p]()
    gen = records[0].generator
    records.append(replace(records[0], invariant=SymPolynomial.zero(gen.algebra),
                           generator=gen + SymPolynomial.one(gen.algebra, gen.ring)))
    for rec in records:
        if rec.term_count < 10_000:
            want = serialize.dumps_canonical(serialize.record_to_document(rec))
            assert serialize.record_text(rec) == want


def _random_text(rng):
    return "".join(rng.choice('ab"\\/\b\f\n\r\t\x00\x1f\x7f é∂𝔽δ_{}')
                   for _ in range(rng.randrange(6)))


def _random_document(rng, depth=0):
    roll = rng.randrange(9 if depth < 4 else 5)
    if roll == 0:
        return rng.choice([None, True, False])
    if roll == 1:
        return rng.choice([0, -1, 1, -(3 ** 50), 7 ** 40, rng.randrange(-999, 999)])
    if roll in (2, 3, 4):
        return _random_text(rng)
    if roll in (5, 6):
        return [_random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_random_text(rng): _random_document(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_canonical_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(2107)
    for _ in range(400):
        doc = _random_document(rng)
        assert serialize.dumps_canonical(doc) == _json_dumps_canonical(doc)
    assert serialize.dumps_canonical({"a": [], "b": {}, "c": [[], {}]}) == (
        '{\n "a": [],\n "b": {},\n "c": [\n  [],\n  {}\n ]\n}\n')


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, b"u", object(), {1: "a"},
                                   {"a": [0, {"b": 2.0}]}])
def test_canonical_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        serialize.dumps_canonical(value)


# -- CLI -------------------------------------------------------------------------

def test_cli_invariant_compute_text(capsys):
    rc = main(["invariant-compute", "--p", "3", "--power", "2"])
    out = capsys.readouterr().out
    assert rc == EX_OK
    assert "2*u_{0,1}*u_{2,1} + 2*u_{1,0}*u_{1,2} + 2*u_{0,2}*u_{2,0} + u_{1,1}^2" in out
    assert "generator = u_{2,2}^2" in out


def test_cli_structured_deterministic(capsys):
    args = ["invariant-compute", "--p", "3", "--power", "2",
            "--output", "structured"]
    assert main(args) == EX_OK
    first = capsys.readouterr().out
    assert main(args) == EX_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["term_count"] == 4 and doc["label"] == "Delta_2"


def test_cli_store_miss_renders_the_record_once(tmp_path, capsys, monkeypatch):
    # the stored file and the structured output are one rendered text, and
    # its bytes are the pinned record document
    rendered = []
    render = serialize.record_text
    monkeypatch.setattr(serialize, "record_text",
                        lambda rec: rendered.append(rec.label) or render(rec))
    argv = ["invariant-compute", "--p", "5", "--power", "4", "--store",
            str(tmp_path), "--output", "structured"]
    assert main(argv) == EX_OK
    out = capsys.readouterr().out
    stored = (tmp_path / "invariant_p5_n2_m1-1_Delta_4_star.json").read_text()
    assert rendered == ["Delta_4_star"] and stored == out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "faa1513d758a9dee3a2c53b11d6f8bba88187ac262b4669ae066044c9d723bd0")


def test_cli_store_and_verify(tmp_path, capsys):
    store = str(tmp_path)
    rc = main(["invariant-compute", "--p", "3", "--power", "2", "--store", store])
    assert rc == EX_OK
    capsys.readouterr()
    # second run verifies against the store instead of recomputing
    rc = main(["invariant-compute", "--p", "3", "--power", "2", "--store", store])
    out = capsys.readouterr().out
    assert rc == EX_OK and "verified against store" in out
    record_file = tmp_path / "invariant_p3_n2_m1-1_Delta_2.json"
    assert record_file.exists()
    rc = main(["invariant-verify", str(record_file)])
    out = capsys.readouterr().out
    assert rc == EX_OK and "4 terms, invariant: yes" in out
    # corrupt one coefficient: verification must fail with exit 1
    doc = json.loads(record_file.read_text())
    doc["invariant"]["terms"][0]["coefficient"] = 1
    record_file.write_text(json.dumps(doc))
    rc = main(["invariant-verify", str(record_file)])
    out = capsys.readouterr().out
    assert rc == EX_FAIL and "invariant: no" in out


@pytest.mark.parametrize("key, value", [("lambda_value", 15),
                                        ("label", "Delta_6_star"),
                                        ("power", 6)])
def test_cli_verify_rejects_tampered_record(tmp_path, capsys, results_p5, key, value):
    doc = serialize.record_to_document(results_p5[4].record)
    doc[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["invariant-verify", str(path)]) == EX_FAIL
    assert "invariant: no" in capsys.readouterr().out


def test_cli_verify_rejects_a_power_that_derives_no_record(tmp_path, capsys, sweep_p7):
    # the re-derivation at the stored power refutes the candidate before any
    # field is compared
    doc = serialize.record_to_document(sweep_p7.records[0])
    assert doc["label"] == "Delta_2"
    doc["power"] = 10
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["invariant-verify", str(path)]) == EX_FAIL
    assert capsys.readouterr().out == (
        "24 terms, invariant: no (Delta_2: power 10 derives no record "
        "(not-invariant: ad(u_{0,2}) does not vanish (phi removed p^1)))\n")


# one tamper per InvariantRecord field, each leaving a well-formed document
TAMPERS = {
    "label": lambda rec: "Delta_4",
    "power": lambda rec: 2,
    # still invariant, but not d^(delta) of the generator
    "invariant": lambda rec: rec.invariant.scale(2),
    # d^(delta)(u_{0,1}^4) = 0, so the image of the generator is unchanged
    "generator": lambda rec: rec.generator + SymPolynomial.from_label(
        rec.generator.algebra, "u_{0,1}") ** 4,
    "lambda_value": lambda rec: rec.lambda_value + 1,
    "term_count": lambda rec: rec.term_count + 1,
    "p_power_m": lambda rec: 3,
}


@pytest.mark.parametrize("field", [f.name for f in fields(pipeline.InvariantRecord)])
def test_cli_verify_rejects_a_tamper_of_every_field(tmp_path, capsys, results_p5,
                                                    field):
    record = results_p5[4].record
    tampered = replace(record, **{field: TAMPERS[field](record)})
    assert getattr(tampered, field) != getattr(record, field)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(serialize.record_to_document(tampered)))
    assert main(["invariant-verify", str(path)]) == EX_FAIL
    # the message names the field; the re-derivation runs at the stored
    # power, so a changed power shows in the label of the record it derives
    named = "label" if field == "power" else field
    prefix = f"invariant: no ({tampered.label}: stored {named} "
    assert prefix in capsys.readouterr().out


def _drop_generator(doc):
    del doc["generator"]
    return doc


def _drop_invariant_p(doc):
    del doc["invariant"]["p"]
    return doc


def _set(path, value):
    """A mangle that puts ``value`` at the key ``path`` in the record."""

    def mangle(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return mangle


def _drop(path):
    """A mangle that deletes the key ``path`` from the record."""

    def mangle(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc

    return mangle


def _shift(path, by):
    """A mangle that adds ``by`` to the int at the key ``path`` in a document."""

    def mangle(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += by
        return doc

    return mangle


def _repeat_factor(doc):
    monomial = doc["invariant"]["terms"][0]["monomial"]
    monomial.append(list(monomial[0]))
    return doc


# malformed terms whose error message is pinned as well
NAMED_FAULTS = {
    "monomial_entry_without_exponent": (
        _set(("invariant", "terms", 0, "monomial", 0), ["u_{1,1}"]),
        "malformed monomial entry ['u_{1,1}']"),
    "repeated_factor": (_repeat_factor, "duplicate factor in a monomial"),
    "ring_z": (_set(("invariant", "ring"), "Z"), "unknown ring 'Z'"),
}

MALFORMED_TERMS = [
    pytest.param(_set(("invariant", "terms", 0), [1]), id="term_not_object"),
    pytest.param(_set(("invariant", "terms", 0, "monomial"), 5),
                 id="monomial_not_list"),
    pytest.param(_set(("invariant", "terms", 0, "monomial", 0, 0), ["u_{1,1}"]),
                 id="label_is_list"),
    pytest.param(_set(("invariant", "terms"), 5), id="terms_not_list"),
    pytest.param(_drop(("invariant", "terms")), id="terms_missing"),
    pytest.param(_drop(("invariant", "terms", 0, "monomial")), id="monomial_missing"),
    # the same residues, but not written as residues 1..p-1 (p = 3)
    pytest.param(_shift(("invariant", "terms", 0, "coefficient"), 3),
                 id="coefficient_plus_p"),
    pytest.param(_shift(("generator", "terms", 0, "coefficient"), -3),
                 id="generator_coefficient_minus_p"),
    *(pytest.param(mangle, id=name) for name, (mangle, _) in NAMED_FAULTS.items()),
]

# JSON true parses to a bool, which Python also counts as the int 1
BOOLEANS = [
    pytest.param(_set(("invariant", "terms", 0, "monomial", 0, 1), True),
                 id="exponent_true"),
    pytest.param(_set(("invariant", "terms", 0, "coefficient"), True),
                 id="coefficient_true"),
    *(pytest.param(_set((key,), True), id=f"{key}_true")
      for key in ("power", "term_count", "p_power_m", "lambda_value", "version")),
    pytest.param(_set(("invariant", "p"), True), id="p_true"),
    pytest.param(_set(("invariant", "n"), True), id="n_true"),
    pytest.param(_set(("invariant", "m"), [True, True]), id="m_true"),
    pytest.param(_set(("generator", "m"), [True, True]), id="generator_m_true"),
]


@pytest.mark.parametrize("mangle", [_drop_generator, _drop_invariant_p,
                                    lambda doc: [doc], lambda doc: "record"]
                         + MALFORMED_TERMS + BOOLEANS)
def test_cli_verify_malformed_record_exits_2(tmp_path, capsys, record_p3, mangle):
    doc = mangle(serialize.record_to_document(record_p3))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["invariant-verify", str(path)]) == EX_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, message", NAMED_FAULTS.values(), ids=NAMED_FAULTS)
def test_cli_verify_names_the_malformed_term(tmp_path, capsys, record_p3, mangle,
                                            message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(mangle(serialize.record_to_document(record_p3))))
    assert main(["invariant-verify", str(path)]) == EX_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["basis", "--m", "1,x"], "expected integers", id="heights"),
    pytest.param(["independence", "--labels", ","], "expected at least one record label",
                 id="labels"),
])
def test_cli_flag_converters_refuse_malformed_values(capsys, argv, message):
    assert main(argv) == EX_USAGE
    assert message in capsys.readouterr().err


def test_document_to_record_malformed(hbar_p3, record_p3):
    for mangle in (_drop_generator, lambda doc: [doc]):
        with pytest.raises(SerializationError):
            serialize.document_to_record(
                mangle(serialize.record_to_document(record_p3)), hbar_p3)


def test_cli_generator_check_malformed_poly_exits_2(tmp_path, capsys, record_p3):
    # a term that is not an object, no term list at all, which is not the
    # zero polynomial, and mod-p coefficients that are not residues 1..p-1
    bad_term = serialize.poly_to_document(record_p3.generator)
    bad_term["terms"][0] = [1]
    no_terms = serialize.poly_to_document(record_p3.generator)
    del no_terms["terms"]
    shifted = [_shift(("terms", 0, "coefficient"), by)(
        serialize.poly_to_document(record_p3.generator)) for by in (3, -3)]
    path = tmp_path / "poly.json"
    for doc in (bad_term, no_terms, *shifted):
        path.write_text(json.dumps(doc))
        assert main(["generator-check", "--p", "3", "--poly", str(path)]) == EX_USAGE
        assert "error:" in capsys.readouterr().err


def test_cli_generator_check(capsys):
    rc = main(["generator-check", "--p", "3", "--var", "u_{2,2}"])
    assert rc == EX_OK
    capsys.readouterr()
    rc = main(["generator-check", "--p", "3", "--var", "u_{1,1}"])
    out = capsys.readouterr().out
    assert rc == EX_FAIL and "FAIL" in out


def test_cli_generator_check_w(capsys):
    rc = main(["generator-check", "--algebra", "W", "--p", "3", "--n", "1",
               "--m", "1", "--var", "x^(2)d_1"])
    out = capsys.readouterr().out
    assert rc == EX_FAIL  # e_1 itself violates the eigenvalue condition
    # the defect is a mod-p polynomial: -1 prints as its residue 2
    assert main(["generator-check", "--algebra", "W", "--p", "3", "--var",
                 "x^(1,0)d_1"]) == EX_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL L1(x^(1,1)d_2) != 0: 2*x^(1,1)d_2" in lines
    assert main(["generator-check", "--algebra", "W", "--p", "3", "--n", "1",
                 "--m", "1"]) == EX_USAGE  # neither --var nor --poly


def test_cli_generator_check_is_a_mod_p_statement(tmp_path, capsys):
    # over Z the defect of D(8,2) is -6*D(8,2), which vanishes mod 3
    argv = ["generator-check", "--p", "3", "--m", "2,1", "--var", "D(8,2)"]
    assert main(argv) == EX_OK
    assert capsys.readouterr().out == "generator conditions hold\n"
    assert main(argv + ["--ring", "int"]) == EX_USAGE
    assert "unrecognized arguments: --ring int" in capsys.readouterr().err
    hbar_21 = algebras.build_hbar(FieldParams(3, 2, (2, 1)))
    path = tmp_path / "int.json"
    path.write_text(serialize.dumps_canonical(serialize.poly_to_document(
        SymPolynomial.from_label(hbar_21, "D(8,2)", "int"))))
    assert main(argv[:5] + ["--poly", str(path)]) == EX_USAGE
    assert capsys.readouterr().err == (
        "error: the generator criteria are mod-p statements\n")


def test_cli_generator_check_prints_a_constant_defect_as_a_number(
        tmp_path, capsys, w1_p3):
    path = tmp_path / "one.json"
    path.write_text(serialize.dumps_canonical(
        serialize.poly_to_document(SymPolynomial.one(w1_p3))))
    assert main(["generator-check", "--algebra", "W", "--p", "3", "--n", "1",
                 "--m", "1", "--poly", str(path)]) == EX_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL ad(x^(1)d_1) eigenvalue defect: 1" in lines


def test_cli_usage_errors(capsys):
    assert main(["no-such-command"]) == EX_USAGE
    assert main(["invariant-compute", "--p", "4", "--power", "2"]) == EX_USAGE
    assert main(["basis", "--algebra", "H", "--n", "3", "--m", "1,1,1"]) == EX_USAGE
    capsys.readouterr()


def test_cli_h_names_its_own_constraint(capsys):
    # H is built as Hbar's subalgebra, but its parameter errors name H
    assert main(["basis", "--algebra", "H", "--n", "3", "--m", "1,1,1"]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: H requires even n, got n=3\n"


def test_cli_budget_exit(capsys):
    rc = main(["conjecture", "--p", "3", "--max-terms", "1"])
    assert rc == EX_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--max-seconds", "nan"),
                                         ("--max-seconds", "-1"),
                                         ("--max-terms", "-1")])
def test_cli_budget_flags_reject_nan_and_negative(capsys, flag, value):
    assert main(["conjecture", "--p", "5", flag, value]) == EX_USAGE
    assert f"argument {flag}: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-terms", "--max-seconds"])
def test_cli_zero_budget_trips_at_once(capsys, flag):
    assert main(["conjecture", "--p", "3", flag, "0"]) == EX_BUDGET
    assert capsys.readouterr().err.startswith("partial results: budget exhausted")


@pytest.mark.parametrize("argv", [
    pytest.param(["conjecture", "--n", "4"], id="conjecture-n"),
    pytest.param(["conjecture", "--output", "structured"], id="conjecture-output"),
    pytest.param(["independence", "--algebra", "W", "--store", "{store}",
                  "--labels", "Delta_2"], id="independence-algebra"),
    pytest.param(["generator-check", "--var", "u_{1,1}", "--max-seconds", "1"],
                 id="generator-check-max-seconds"),
    pytest.param(["generator-check", "--poly", "{poly}", "--ring", "int"],
                 id="generator-check-poly-ring"),
    pytest.param(["generator-check", "--var", "u_{1,1}", "--poly", "{poly}"],
                 id="generator-check-var-poly"),
    pytest.param(["basis", "--ring", "int"], id="basis-ring"),
    pytest.param(["bracket-table", "--max-terms", "5"], id="bracket-table-max-terms"),
    pytest.param(["invariant-compute", "--algebra", "Hbar", "--power", "2"],
                 id="invariant-compute-algebra"),
])
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, capsys, hbar_p3,
                                                     record_p3, argv):
    serialize.save_record(tmp_path, record_p3)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(serialize.poly_to_document(
        SymPolynomial.from_label(hbar_p3, "u_{2,2}"))))
    argv = [a.replace("{store}", str(tmp_path)).replace("{poly}", str(poly))
            for a in argv]
    assert main(argv) == EX_USAGE
    assert "error:" in capsys.readouterr().err


def test_cli_conjecture_p3(capsys):
    rc = main(["conjecture", "--p", "3"])
    out = capsys.readouterr().out
    assert rc == EX_OK
    assert "independent invariants: 1" in out and "match: yes" in out


def test_cli_invariant_compute_reports_a_candidate_that_is_not_invariant(capsys):
    assert main(["invariant-compute", "--p", "7", "--power", "10"]) == EX_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "Delta_10_star: candidate is not invariant; ad(u_{0,2}) != 0 "
        "(ad(u_{0,2}) does not vanish (phi removed p^1))\n")


def test_cli_conjecture_stores_the_verified_records(tmp_path, capsys, sweep_p7):
    # the refuted power is reported, and only the four records are stored
    assert main(["conjecture", "--p", "7", "--store", str(tmp_path)]) == EX_OK
    assert ("power 10: Delta_10_star not-invariant (ad(u_{0,2}) does not vanish "
            "(phi removed p^1))\n") in capsys.readouterr().out
    stored = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert stored == {
        f"invariant_p7_n2_m1-1_{rec.label}.json": serialize.record_text(rec).encode()
        for rec in sweep_p7.records}
    assert [rec.label for rec in sweep_p7.records] == [
        "Delta_2", "Delta_4_star", "Delta_6_star", "Delta_8_star"]


def test_cli_conjecture_needs_an_odd_prime(capsys):
    assert main(["conjecture", "--p", "2"]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    pytest.param(["generator-check", "--var", "nope"], id="unknown-label"),
    pytest.param(["independence", "--store", "{store}", "--labels", "Delta_8"],
                 id="no-stored-record"),
    pytest.param(["independence", "--labels", "Delta_2"], id="no-store"),
    pytest.param(["basis", "--p", "2"], id="hbar-p2"),
    pytest.param(["basis", "--algebra", "H", "--p", "2"], id="h-p2"),
    pytest.param(["generator-check", "--p", "2", "--var", "u_{1,1}"],
                 id="generator-check-p2"),
])
def test_cli_usage_exits_print_through_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv(serialize.STORE_ENV, raising=False)
    argv = [a.replace("{store}", str(tmp_path)) for a in argv]
    assert main(argv) == EX_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# SHA-256 of the structured tables, frozen: the Hamiltonian construction
# must keep H and Hbar byte for byte beyond n = 2, m = (1, 1)
@pytest.mark.parametrize("algebra, n, m, sha", [
    ("H", "4", "1,1,1,1",
     "c3dda3a39d0685c40d594887b898d87a0771147f689e7cb60bb2a72020821ef2"),
    ("Hbar", "4", "1,1,1,1",
     "faec0ce6d4b3647449682823c0a6d288a78ec3e36adbd1fbe722ac5c8c4838c3"),
    ("H", "2", "2,1",
     "39f67344b962393f21a0dfee29be523595710d6fd1bcc28d835d2bda4e23f91c"),
    ("Hbar", "2", "2,1",
     "4263c59df80603cfdfd1041d75efbc3f80190cd4381d88d170724e039be85ac8"),
])
def test_cli_hamiltonian_bracket_tables_pinned(capsys, algebra, n, m, sha):
    assert main(["bracket-table", "--algebra", algebra, "--p", "3", "--n", n,
                 "--m", m, "--output", "structured"]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# SHA-256 of the text tables, frozen: the text form reads the stored rows
@pytest.mark.parametrize("argv, sha", [
    (["--algebra", "W", "--n", "1", "--m", "2"],
     "318fac6845098cd1dfe2acbec43ed70f7211622c21e619ca5f326996c3b0f3a8"),
    (["--algebra", "S", "--n", "3", "--m", "1,1,1"],
     "542bdec0e0e2c12dd35bd21c517182a55e73e7ded7a45b78cdfcb1ab2998f886"),
    (["--algebra", "Hbar", "--p", "5"],
     "4d64eb52a338541a6c6a81bd3ac18c66e7dfa770ef7f14f02c130b3dd6d94f01"),
    (["--algebra", "H", "--m", "2,1"],
     "bf0c58445565fe5741dffb45591f13bbab3e924ba2d78aabecf907802f290062"),
])
def test_cli_text_bracket_tables_pinned(capsys, argv, sha):
    assert main(["bracket-table", *argv]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


def test_cli_reads_the_store_variable_when_a_command_runs(tmp_path, capsys,
                                                          monkeypatch):
    # the parser is built once, so the variable set after a first call
    # still names the store of the next
    monkeypatch.delenv(serialize.STORE_ENV, raising=False)
    assert main(["basis", "--p", "3"]) == EX_OK
    monkeypatch.setenv(serialize.STORE_ENV, str(tmp_path))
    assert main(["invariant-compute", "--p", "3", "--power", "2"]) == EX_OK
    capsys.readouterr()
    assert serialize.record_path(tmp_path, 3, 2, (1, 1), "Delta_2").exists()


def test_cli_basis_document_pinned(capsys):
    # the basis document is rendered without the structure constants
    assert main(["basis", "--p", "5", "--output", "structured"]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "8b097f674a94e26cce0ac83822ef63b0e6c61a0ad1ead444edc152b9d787dc02")


def test_basis_document_reads_no_structure_constants(monkeypatch, hbar_p5):
    def no_table(*args):
        raise AssertionError("the basis document read the table")

    doc = serialize.basis_document(hbar_p5)
    monkeypatch.setattr(hbar_p5, "row_int", no_table)
    monkeypatch.setattr(hbar_p5, "row_mod", no_table)
    monkeypatch.setattr(hbar_p5, "rows_int", None)
    assert serialize.basis_document(hbar_p5) == doc
    assert doc["format"] == "cartaninv.basis" and doc["r"] == hbar_p5.r


def test_cli_basis_and_bracket_table(capsys, tmp_path):
    assert main(["basis", "--algebra", "W", "--p", "3", "--n", "1", "--m", "1"]) == EX_OK
    out = capsys.readouterr().out
    assert "dim = 3" in out
    assert main(["bracket-table", "--algebra", "W", "--p", "3", "--n", "1",
                 "--m", "1"]) == EX_OK
    out = capsys.readouterr().out
    assert "[x^(0)d_1, x^(1)d_1] = 1*x^(0)d_1" in out
    store = str(tmp_path)
    assert main(["bracket-table", "--algebra", "Hbar", "--p", "3",
                 "--store", store, "--output", "structured"]) == EX_OK
    capsys.readouterr()
    assert (tmp_path / "sc_Hbar_p3_n2_m1-1.json").exists()


def test_cli_independence(tmp_path, capsys):
    store = str(tmp_path)
    assert main(["invariant-compute", "--p", "3", "--power", "2",
                 "--store", store]) == EX_OK
    capsys.readouterr()
    rc = main(["independence", "--p", "3", "--store", store,
               "--labels", "Delta_2"])
    out = capsys.readouterr().out
    assert rc == EX_OK and "independent records: 1 of 1" in out
    rc = main(["independence", "--p", "3", "--store", store,
               "--labels", "Delta_2,Delta_6_star"])
    assert rc == EX_USAGE  # no such stored record
    capsys.readouterr()


@pytest.mark.parametrize("labels", ["../../etc/passwd", "Delta_2,Delta_",
                                    "Delta_4_star_star", "Delta_2/../x"])
def test_cli_labels_must_follow_the_grammar(tmp_path, capsys, labels):
    rc = main(["independence", "--p", "3", "--store", str(tmp_path),
               "--labels", labels])
    assert rc == EX_USAGE
    assert "bad record label" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["Delta_2,Delta_2", "Delta_2,Delta_4_star,Delta_2"])
def test_cli_labels_must_not_repeat(tmp_path, capsys, labels):
    # a repeated record is malformed input, not a dependency to report
    rc = main(["independence", "--p", "3", "--store", str(tmp_path),
               "--labels", labels])
    assert rc == EX_USAGE
    assert "repeated record label 'Delta_2'" in capsys.readouterr().err


def test_cli_independence_does_not_depend_on_label_order(tmp_path, capsys,
                                                         hbar_p5, results_p5):
    serialize.save_structure_constants(tmp_path, hbar_p5)
    for result in results_p5.values():
        serialize.save_record(tmp_path, result.record)
    argv = ["independence", "--p", "5", "--store", str(tmp_path), "--labels"]
    assert main(argv + ["Delta_2,Delta_4_star"]) == EX_FAIL
    want = capsys.readouterr().out
    assert "dependency: Delta_4_star = 1*Delta_2^2" in want
    assert want.endswith("independent records: 1 of 2\n")
    assert main(argv + ["Delta_4_star,Delta_2"]) == EX_FAIL
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ["independence", "--labels", "Delta_2,Delta_4_star,Delta_6_star"],
    ["invariant-compute", "--power", "4"],
])
def test_cli_store_reads_verify_the_record(tmp_path, capsys, results_p5, argv):
    for result in results_p5.values():
        serialize.save_record(tmp_path, result.record)
    path = serialize.record_path(tmp_path, 5, 2, (1, 1), "Delta_4_star")
    doc = json.loads(path.read_text())
    doc["lambda_value"] = 15
    path.write_text(json.dumps(doc))
    assert main(argv + ["--p", "5", "--store", str(tmp_path)]) == EX_FAIL
    err = capsys.readouterr().err
    assert ("stored record failed verification: Delta_4_star: stored lambda_value "
            "15 != derived 16\n") in err


@pytest.mark.parametrize("argv", [
    ["independence", "--labels", "Delta_4_star,Delta_6_star"],
    ["invariant-compute", "--power", "4"],
])
def test_cli_store_refuses_a_record_under_another_label(tmp_path, capsys, results_p5,
                                                        argv):
    # Delta_6_star's document copied onto Delta_4_star's file is refused,
    # not served as Delta_4_star
    serialize.save_record(tmp_path, results_p5[6].record)
    path = serialize.record_path(tmp_path, 5, 2, (1, 1), "Delta_4_star")
    path.write_text(serialize.record_text(results_p5[6].record))
    assert main(argv + ["--p", "5", "--store", str(tmp_path)]) == EX_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "stored record for Delta_4_star holds Delta_6_star\n"


@pytest.mark.parametrize("argv", [["invariant-verify"],
                                  ["generator-check", "--p", "3", "--poly"]])
@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
def test_cli_unreadable_input_file_exits_2(tmp_path, capsys, argv, unreadable):
    path = tmp_path / "input.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    assert main(argv + [str(path)]) == EX_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def _budget_factory(trip):
    """A stand-in for ``cli.Budget``: a ``TripClock(trip)`` when a budget flag
    is set, a real unlimited budget otherwise."""
    def make(max_terms=None, max_seconds=None):
        if max_terms is None and max_seconds is None:
            return Budget()
        return TripClock(trip)
    return make


@pytest.fixture
def trip_first_checkpoint(monkeypatch):
    """Every budget the CLI makes from a flag trips on its first checkpoint."""
    monkeypatch.setattr(cli, "Budget", _budget_factory(trip=1))


def test_cli_store_hit_honours_the_budget(tmp_path, capsys, hbar_p5, results_p5,
                                          trip_first_checkpoint):
    # Hbar comes from the sc cache, so the first checkpoint is the record's
    serialize.save_structure_constants(tmp_path, hbar_p5)
    serialize.save_record(tmp_path, results_p5[4].record)
    argv = ["invariant-compute", "--p", "5", "--power", "4", "--store", str(tmp_path)]
    assert main(argv + ["--max-seconds", "60"]) == EX_BUDGET
    assert "budget exceeded" in capsys.readouterr().err
    assert main(argv) == EX_OK  # no budget: the stored record verifies
    assert "verified against store" in capsys.readouterr().out


def test_cli_independence_honours_the_budget(tmp_path, capsys, hbar_p5, results_p5,
                                             trip_first_checkpoint):
    serialize.save_structure_constants(tmp_path, hbar_p5)
    for result in results_p5.values():
        serialize.save_record(tmp_path, result.record)
    assert main(["independence", "--p", "5", "--store", str(tmp_path), "--labels",
                 "Delta_2,Delta_4_star,Delta_6_star", "--max-seconds", "60"]) == EX_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_conjecture_budget_trip_in_the_rank_test(capsys, monkeypatch,
                                                     sweep_p5_checkpoints):
    monkeypatch.setattr(cli, "Budget", _budget_factory(trip=sweep_p5_checkpoints))
    assert main(["conjecture", "--p", "5", "--max-seconds", "60"]) == EX_BUDGET
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()[:3]] == [
        "power 2", "power 4", "power 6"]
    assert "independent invariants: 0, external index value: 3, match: no" in out
    assert err.startswith("partial results: budget exhausted in the independence test")


def test_cli_conjecture_budget_bounds_the_closure_check(capsys, monkeypatch):
    # a stub clock that advances one second per bracket of the closure check
    now = [0.0]
    bracket = algebras.bracket

    def timed(*args):
        now[0] += 1
        return bracket(*args)

    monkeypatch.setattr(errors.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(algebras, "bracket", timed)
    assert main(["conjecture", "--p", "13", "--max-seconds", "1000"]) == EX_BUDGET
    out, err = capsys.readouterr()
    assert err.startswith("partial results: budget exhausted in the algebra build")
    assert "independent invariants: 0, external index value: 11, match: no" in out
    # the trip is the first row checkpoint past the deadline: at most one row,
    # dim - 1 brackets, late
    dim = 13 ** 2 - 1
    assert 1000 < now[0] <= 1000 + dim - 1


def test_cli_invariant_verify_honours_the_budget(tmp_path, capsys, monkeypatch,
                                                 hbar_p5, results_p5):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(serialize.record_to_document(results_p5[4].record)))
    clocks = []

    def counting(max_terms=None, max_seconds=None):
        clocks.append(TripClock())
        return clocks[-1]

    monkeypatch.setattr(cli, "Budget", counting)
    assert main(["invariant-verify", str(path)]) == EX_OK
    total = clocks[0].checkpoints
    build = TripClock()
    algebras.build_hbar(hbar_p5.params, budget=build)
    assert total > build.checkpoints  # the build's rows, then verify()'s
    # the first and last checkpoint of the build, then of verify()
    for trip in (1, build.checkpoints, build.checkpoints + 1, total):
        monkeypatch.setattr(cli, "Budget", _budget_factory(trip))
        assert main(["invariant-verify", str(path), "--max-seconds", "60"]) == EX_BUDGET
        assert "budget exceeded" in capsys.readouterr().err
    monkeypatch.setattr(cli, "Budget", Budget)
    assert main(["invariant-verify", str(path), "--max-terms", "1"]) == EX_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_store_write_failure_keeps_the_old_file(tmp_path, monkeypatch, record_p3,
                                                fail_at):
    path = serialize.save_record(tmp_path, record_p3)
    old = path.read_bytes()
    if fail_at == "write":
        def write_half(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half)
    else:
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(serialize.os, "replace", refuse)
    with pytest.raises(OSError):
        serialize.save_record(tmp_path, replace(record_p3, term_count=99))
    assert path.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_python_m_cartaninv_runs_the_cli():
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "cartaninv", *argv],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == EX_OK and shown.stdout.startswith("usage: cartaninv")
    refused = run("basis", "--bogus")
    assert refused.returncode == EX_USAGE
    assert "unrecognized arguments: --bogus" in refused.stderr


CLI_FLAGS = {
    "basis": {"--algebra", "--p", "--n", "--m", "--output", "--store"},
    "bracket-table": {"--algebra", "--p", "--n", "--m", "--output", "--store"},
    "invariant-compute": {"--p", "--n", "--m", "--output", "--store", "--max-terms",
                          "--max-seconds", "--power"},
    "invariant-verify": {"--max-terms", "--max-seconds"},
    "generator-check": {"--algebra", "--p", "--n", "--m", "--store", "--var",
                        "--poly"},
    "independence": {"--p", "--n", "--m", "--store", "--max-terms", "--max-seconds",
                     "--labels"},
    "conjecture": {"--p", "--store", "--max-terms", "--max-seconds"},
}


def _readme_cli_examples():
    """The argv of every ``cartaninv ...`` line in README's CLI code block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("cartaninv ")]


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_cli_flags_and_readme_examples(capsys, command):
    """Each command's --help exits 0 and its usage lists exactly its flags; the
    README's examples of it parse (without running)."""
    assert main([command, "--help"]) == EX_OK
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == CLI_FLAGS[command]
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == set(CLI_FLAGS)
    for argv in examples:
        if argv[0] == command:
            assert cli._parser().parse_args(argv).command == command
