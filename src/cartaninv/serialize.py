"""Canonical structured documents, text rendering and the on-disk store.

All documents are JSON with a "format" tag and integer "version".  Term
lists are sorted by (total degree, expanded variable sequence) and monomial
factors by basis position; coefficients are least non-negative residues in
the mod-p ring and signed integers otherwise.  Two runs of the same job
produce byte-identical documents.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .algebras import CartanAlgebra, build
from .errors import UNLIMITED, SerializationError
from .modular import FieldParams
from .pipeline import InvariantRecord
from .symalg import SymPolynomial, render_text  # re-exported: the CLI renders through serialize

POLY_FORMAT = "cartaninv.sympoly"
RECORD_FORMAT = "cartaninv.invariant-record"
SC_FORMAT = "cartaninv.structure-constants"
BASIS_FORMAT = "cartaninv.basis"
VERSION = 1

STORE_ENV = "CARTANINV_STORE"


def dumps_canonical(doc) -> str:
    """The canonical text of a document, written directly: the same bytes as
    ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"``.

    A document holds dicts with str keys, lists, str, int, bool and None; any
    other value raises TypeError."""
    out = []
    _write(doc, out, 0)
    out.append("\n")
    return "".join(out)


# per depth: the text before the first item and before each later one; every
# container at one depth shares these two strings
_LAYOUT = [("\n", ",\n")]


def _grow_layout(depth):
    while len(_LAYOUT) <= depth:
        lead = _LAYOUT[-1][0] + " "
        _LAYOUT.append((lead, "," + lead))


def _write(value, out, depth):
    """Append the canonical text of ``value``, nested ``depth`` deep, to
    ``out``."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        if depth + 1 >= len(_LAYOUT):
            _grow_layout(depth + 1)
        lead, sep = _LAYOUT[depth + 1]
        out.append("[")
        for item in value:
            out.append(lead)
            lead = sep
            _write(item, out, depth + 1)
        out += (_LAYOUT[depth][0], "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if depth + 1 >= len(_LAYOUT):
            _grow_layout(depth + 1)
        lead, sep = _LAYOUT[depth + 1]
        out.append("{")
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"a canonical document key is a str, not {key!r}")
            out += (lead, _quote(key), ": ")
            lead = sep
            _write(value[key], out, depth + 1)
        out += (_LAYOUT[depth][0], "}")
    elif isinstance(value, _TermList):
        value.write(out, depth)
    else:
        raise TypeError(f"a canonical document holds no {type(value).__name__}")


def _header(algebra: CartanAlgebra, fmt: str) -> dict:
    pr = algebra.params
    return {
        "format": fmt,
        "version": VERSION,
        "kind": algebra.kind,
        "p": pr.p,
        "n": pr.n,
        "m": list(pr.m),
        "sign_convention": algebra.sign_tag,
    }


def _is_int(x) -> bool:
    """A JSON integer: ``true`` parses to a bool, which Python counts as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_format(doc, fmt: str) -> None:
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise SerializationError(f"expected a {fmt} document")
    version = doc.get("version")
    if not _is_int(version) or version != VERSION:
        raise SerializationError(f"format version mismatch: {version!r} != {VERSION}")


def _check_header(doc, fmt: str, algebra: CartanAlgebra) -> None:
    _check_format(doc, fmt)
    _check_field_ints(doc, fmt)
    want = _header(algebra, fmt)
    for key in ("kind", "p", "n", "m", "sign_convention"):
        if doc.get(key) != want[key]:
            raise SerializationError(
                f"document {key}={doc.get(key)!r} does not match "
                f"the algebra ({want[key]!r})"
            )


# -- polynomials ----------------------------------------------------------------

def _poly_document(F: SymPolynomial, terms) -> dict:
    doc = _header(F.algebra, POLY_FORMAT)
    doc["ring"] = F.ring
    doc["terms"] = terms
    return doc


def poly_to_document(F: SymPolynomial) -> dict:
    labels = [b.label for b in F.algebra.basis]
    return _poly_document(F, [
        {"monomial": [[labels[v], e] for v, e in mono], "coefficient": c}
        for mono, c in F.sorted_terms()
    ])


class _TermList:
    """A polynomial's term list in a document that is only written: ``_write``
    gives it the text of ``poly_to_document``'s list, straight from
    ``sorted_terms()`` with no dict or list per term."""

    def __init__(self, F: SymPolynomial):
        self.F = F

    def write(self, out, depth):
        """Append the list's canonical text, nested ``depth`` deep, to ``out``:
        each term is an object at depth + 1 whose keys sit at depth + 2, and
        each factor a pair at depth + 3 whose items sit at depth + 4."""
        terms = self.F.sorted_terms()
        if not terms:
            out.append("[]")
            return
        _grow_layout(depth + 4)
        lead = [lead for lead, _ in _LAYOUT[depth:depth + 5]]
        factor = _FactorText(
            [f"[{lead[4]}{_quote(b.label)},{lead[4]}" for b in self.F.algebra.basis],
            lead[3] + "]").__getitem__
        head = "{" + lead[2] + '"coefficient": '
        mid = "," + lead[2] + '"monomial": '
        opened, factor_sep, closed = "[" + lead[3], "," + lead[3], lead[2] + "]"
        tail = lead[1] + "}"
        out += ("[", lead[1], ("," + lead[1]).join([
            head + int.__repr__(c) + mid
            + (opened + factor_sep.join(map(factor, mono)) + closed if mono else "[]")
            + tail for mono, c in terms]), lead[0], "]")


class _FactorText(dict):
    """The text of a factor (v, e) of a term list: ``before[v]``, the
    exponent, ``after``; made the first time one render meets it."""

    def __init__(self, before, after):
        super().__init__()
        self.before, self.after = before, after

    def __missing__(self, factor):
        v, e = factor
        text = self[factor] = self.before[v] + int.__repr__(e) + self.after
        return text


def document_to_poly(doc, algebra: CartanAlgebra) -> SymPolynomial:
    _check_header(doc, POLY_FORMAT, algebra)
    ring = doc.get("ring")
    if ring not in ("int", "modp"):
        raise SerializationError(f"unknown ring {ring!r}")
    entries = doc.get("terms")
    if not isinstance(entries, list):
        raise SerializationError("the term list is missing or not a list")
    p = algebra.params.p
    terms = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SerializationError(f"malformed term entry {entry!r}")
        pairs = entry.get("monomial")
        if not isinstance(pairs, list):
            raise SerializationError(f"missing or malformed monomial {pairs!r}")
        mono = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise SerializationError(f"malformed monomial entry {pair!r}")
            label, e = pair
            if not isinstance(label, str) or label not in algebra.index:
                raise SerializationError(f"unknown basis label {label!r}")
            if not _is_int(e) or e <= 0:
                raise SerializationError(f"bad exponent {e!r} for {label}")
            mono.append((algebra.index[label], e))
        mono.sort()
        if len({v for v, _ in mono}) != len(mono):
            raise SerializationError("duplicate factor in a monomial")
        c = entry.get("coefficient")
        # a mod-p coefficient is a residue: SymPolynomial would reduce any other
        if not _is_int(c) or c == 0 or (ring == "modp" and not 0 < c < p):
            raise SerializationError(f"bad coefficient {c!r}")
        key = tuple(mono)
        if key in terms:
            raise SerializationError("duplicate monomial in term list")
        terms[key] = c
    return SymPolynomial(algebra, ring, terms)


# -- invariant records -------------------------------------------------------------

def _record_document(record: InvariantRecord, poly) -> dict:
    return {
        "format": RECORD_FORMAT,
        "version": VERSION,
        "label": record.label,
        "power": record.power,
        "p_power_m": record.p_power_m,
        "lambda_value": record.lambda_value,
        "term_count": record.term_count,
        "generator": poly(record.generator),
        "invariant": poly(record.invariant),
    }


def record_to_document(record: InvariantRecord) -> dict:
    return _record_document(record, poly_to_document)


_RECORD_FIELDS = (("generator", dict), ("invariant", dict), ("label", str),
                  ("power", int), ("term_count", int), ("p_power_m", int))


def _check_record_shape(doc) -> None:
    _check_format(doc, RECORD_FORMAT)
    for key, kind in _RECORD_FIELDS:
        value = doc.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SerializationError(
                f"invariant record field {key} is missing or not a {kind.__name__}")
    lam = doc.get("lambda_value")
    if lam is not None and not _is_int(lam):
        raise SerializationError("invariant record field lambda_value is not an "
                                 "int or null")


def _check_field_ints(doc, what: str) -> None:
    p, n, m = doc.get("p"), doc.get("n"), doc.get("m")
    if not (_is_int(p) and _is_int(n) and isinstance(m, list)
            and all(_is_int(x) for x in m)):
        raise SerializationError(f"{what} document needs integer p, n and m")


def _field_params(doc, what: str) -> FieldParams:
    _check_field_ints(doc, what)
    return FieldParams(doc["p"], doc["n"], tuple(doc["m"]))


def record_params(doc) -> FieldParams:
    """The field parameters an invariant record document names."""
    _check_record_shape(doc)
    return _field_params(doc["invariant"], "invariant")


def document_to_record(doc, hbar: CartanAlgebra) -> InvariantRecord:
    _check_record_shape(doc)
    if hbar.kind != "Hbar":
        raise SerializationError("records are resolved against an Hbar algebra")
    gen_doc = doc["generator"]
    gen_alg = hbar if gen_doc.get("kind") == "Hbar" else hbar.h_subalgebra
    generator = document_to_poly(gen_doc, gen_alg)
    invariant = document_to_poly(doc["invariant"], hbar.h_subalgebra)
    return InvariantRecord(
        label=doc["label"],
        power=doc["power"],
        invariant=invariant,
        generator=generator,
        lambda_value=doc.get("lambda_value"),
        term_count=doc["term_count"],
        p_power_m=doc["p_power_m"],
    )


# -- structure constants -------------------------------------------------------------

def _basis_header(algebra: CartanAlgebra, fmt: str) -> dict:
    doc = _header(algebra, fmt)
    doc["dim"] = algebra.dim
    doc["basis"] = [{"label": b.label, "grade": b.grade} for b in algebra.basis]
    return doc


def basis_document(algebra: CartanAlgebra) -> dict:
    """The ordered basis, its grades and the top grade r; no table is read."""
    return dict(_basis_header(algebra, BASIS_FORMAT), r=algebra.r)


def sc_document(algebra: CartanAlgebra) -> dict:
    doc = _basis_header(algebra, SC_FORMAT)
    doc["rows"] = [[i, j, [[k, c] for k, c in row]]
                   for i, j, row in algebra.stored_rows()]
    return doc


def algebra_from_sc_document(doc, kind, params: FieldParams,
                             budget=UNLIMITED) -> CartanAlgebra:
    """The algebra of ``kind`` and ``params`` from its cached tensor, skipping
    bracket verification; ``budget`` bounds the build, as it does ``build``.

    The requested algebra is built from its closed forms; the document must
    name that kind and those parameters, and its basis and rows must equal
    the freshly rendered ones, which is the cheap consistency check replacing
    the full derivation-level verification.  Any other document, whatever
    algebra it describes, fails those comparisons.
    """
    algebra = build(kind, params, verify=False, budget=budget)
    _check_header(doc, SC_FORMAT, algebra)
    fresh = sc_document(algebra)
    if doc.get("basis") != fresh["basis"]:
        raise SerializationError("cached basis does not match the enumeration")
    if doc.get("rows") != fresh["rows"]:
        raise SerializationError("cached structure constants disagree")
    return algebra


# -- the store -------------------------------------------------------------------------

def default_store() -> str | None:
    return os.environ.get(STORE_ENV)


def _m_tag(m) -> str:
    return "-".join(str(x) for x in m)


def record_path(store, p, n, m, label) -> Path:
    return Path(store) / f"invariant_p{p}_n{n}_m{_m_tag(m)}_{label}.json"


def sc_path(store, kind, p, n, m) -> Path:
    return Path(store) / f"sc_{kind}_p{p}_n{n}_m{_m_tag(m)}.json"


def _write_atomic(path: Path, text: str) -> Path:
    """Write the text through a temp file in the same directory and
    ``os.replace``, so a failed write leaves any old file as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def record_text(record: InvariantRecord) -> str:
    """The canonical text of a record's document, as stored and emitted: the
    bytes of ``dumps_canonical(record_to_document(record))``, with each term
    list written straight from the sorted terms."""
    return dumps_canonical(_record_document(
        record, lambda F: _poly_document(F, _TermList(F))))


def save_record(store, record: InvariantRecord, text: str | None = None) -> Path:
    """Store the record; ``text`` is its ``record_text``, when already rendered."""
    pr = record.invariant.algebra.params
    path = record_path(store, pr.p, pr.n, pr.m, record.label)
    return _write_atomic(path, record_text(record) if text is None else text)


def load_record(store, hbar: CartanAlgebra, label) -> InvariantRecord | None:
    pr = hbar.params
    path = record_path(store, pr.p, pr.n, pr.m, label)
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return document_to_record(doc, hbar)


def save_structure_constants(store, algebra: CartanAlgebra) -> Path:
    pr = algebra.params
    path = sc_path(store, algebra.kind, pr.p, pr.n, pr.m)
    return _write_atomic(path, dumps_canonical(sc_document(algebra)))


def load_algebra(store, kind, params: FieldParams,
                 budget=UNLIMITED) -> CartanAlgebra | None:
    path = sc_path(store, kind, params.p, params.n, params.m)
    if not path.exists():
        return None
    return algebra_from_sc_document(json.loads(path.read_text()), kind, params, budget)
