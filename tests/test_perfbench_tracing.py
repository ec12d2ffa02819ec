"""The names perfbench/tracing.py rebinds must exist in the package: a
refactor that renames one fails here rather than only in a traced bench run."""

from pathlib import Path

from cartaninv import algebras
from cartaninv.modular import FieldParams

ROOT = Path(__file__).resolve().parent.parent


def test_instrument_rebinds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer, instrument

    build_h, builders = algebras.build_h, dict(algebras._BUILDERS)
    with instrument(Tracer()) as tracer:
        assert algebras.build_h is not build_h
        algebras.build("Hbar", FieldParams(3, 2, (1, 1)), verify=False)
    assert algebras.build_h is build_h and algebras._BUILDERS == builders
    assert [s[0] for s in tracer.spans if s[0].startswith("algebras.build.")] == [
        "algebras.build.Hbar"]


def test_traced_closure_check_counts_its_brackets(monkeypatch):
    # the closure check calls the module-level ``algebras.bracket`` once per
    # pair i < j that the truncation does not kill: all 28 of Hbar's, and 124
    # of W's 153, where a_t + b_t > delta_t + 1 proves 29 brackets zero
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer, instrument

    params = FieldParams(3, 2, (1, 1))
    with instrument(Tracer()) as tracer:
        dims = [algebras.build(kind, params).dim for kind in ("Hbar", "W")]
    assert dims == [8, 18]
    assert tracer.counts["algebras.bracket"] == 28 + 124
