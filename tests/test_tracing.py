"""The benchmark's tracer wraps library attributes by name; a refactor that
moves one of them must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from weakgiant import BivariateDegreeDist
from weakgiant.degdist import _Table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    for owner, attr, _name, _count in tracing.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not the owner's own attribute"
    assert isinstance(vars(BivariateDegreeDist)["from_entries"], classmethod)
    assert hasattr(_Table, "entries")


def test_tracer_wraps_and_restores():
    tracing = _load_tracing()
    originals = [vars(owner)[attr] for owner, attr, _name, _count in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = BivariateDegreeDist.from_entries([(1, 0, 0.5), (0, 1, 0.5)])
    finally:
        tracer.uninstall()
    assert type(d) is BivariateDegreeDist
    assert [span[tracing.NAME] for span in tracer.spans] == ["degdist.from_entries"]
    assert [vars(owner)[attr] for owner, attr, _name, _count in tracing.TARGETS] == originals
