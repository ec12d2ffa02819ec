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
