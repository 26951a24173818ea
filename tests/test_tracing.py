"""The benchmark's tracer wraps library attributes by name; a refactor that
moves one of them must fail here, not only in a traced benchmark run."""

import importlib.util
import json
from pathlib import Path

from helpers import run_cli
from weakgiant import BivariateDegreeDist, truncated_double_poisson
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


def test_tracer_counts_work_of_small_requests(tmp_path):
    tracing = _load_tracing()
    counted = {name for _owner, _attr, name, count in tracing.TARGETS if count is not None}
    bounds = tmp_path / "p.txt"
    bounds.write_text("10 10 0.33333333333333331\n5 10 0.33333333333333331\n10 4 0.33333333333333337\n")
    dist = tmp_path / "d.txt"
    dist.write_text(truncated_double_poisson(0.6).to_text())
    requests = [
        ["evolve", str(bounds), "--at-conversion", "0.6"],
        ["gf", str(dist), "--order", "20"],
        ["simulate", str(bounds), "--mode", "kmc", "--vertices", "500", "--target-conversion", "0.5"],
        ["simulate", str(dist), "--mode", "config", "--vertices", "500"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = []
        for argv in requests:
            code, out, err = run_cli(argv)
            assert code == 0, err
            outputs.append(json.loads(out))
    finally:
        tracer.uninstall()
    spans = [span for span in tracer.spans if span[tracing.NAME] in counted]
    assert {span[tracing.NAME] for span in spans} == counted
    assert all(span[tracing.COUNT] > 0 for span in spans), spans
    (state,) = [span for span in spans if span[tracing.NAME] == "evolution.degree_state_at_conversion"]
    assert state[tracing.COUNT] == len(outputs[0]["marginal"])
