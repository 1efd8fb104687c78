"""The benchmark's layer hooks must find every function they wrap:
``perfbench/run.py`` only prints the names ``perfbench/tracer.py`` could
not find, so a rename in the package would silently zero a layer metric."""

import importlib.util
from pathlib import Path

from officesim import compare_policies

from conftest import make_small_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_layer_hook_finds_its_target_and_is_restored():
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    try:
        assert recorder.install(tracer.wrap_targets()) == []
    finally:
        assert recorder.restore() is True


def test_tracer_counts_every_email():
    # The engine reaches contact_step through its module global, so the
    # wrapped one sees every email the replications count.
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    scenario = make_small_scenario(population_size=5, contact_rate=200.0)
    try:
        recorder.install(tracer.wrap_targets())
        comparison = compare_policies(scenario, replications=3)
    finally:
        assert recorder.restore() is True
    contacts = recorder.stats["network.contact_step"]["outcomes"]
    assert contacts > 0
    assert contacts == sum(
        rep.contact_count for rep in comparison.automated.replications
    )
