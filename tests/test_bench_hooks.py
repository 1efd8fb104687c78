"""The benchmark's layer hooks must find every function they wrap:
``perfbench/run.py`` only prints the names ``perfbench/tracer.py`` could
not find, so a rename in the package would silently zero a layer metric."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from officesim import compare_policies
from officesim.checks import contact_count

from conftest import make_building_text, make_small_scenario

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
    # wrapped one counts every email the passes draw. A pass skips the
    # stays whose sender can raise nobody; here it draws every stay, so
    # that is every email the replications count.
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    scenario = make_small_scenario(population_size=5, contact_rate=200.0)
    try:
        recorder.install(tracer.wrap_targets())
        comparison = compare_policies(replace(scenario, replications=3))
    finally:
        assert recorder.restore() is True
    assert recorder.stats["network.contact_step"]["calls"] == sum(
        len(rep.record.stay_sender) for rep in comparison.automated.replications
    )
    contacts = recorder.stats["network.contact_step"]["outcomes"]
    assert contacts > 0
    assert contacts == sum(
        contact_count(rep.record) for rep in comparison.automated.replications
    )


def test_tracer_times_the_cli_layers(tmp_path):
    # The CLI reaches the engine through forwarders in its own namespace and
    # the scenario parser reaches the building loader through its module
    # global, so the wrapped ones see every call a command makes.
    from officesim import cli

    (tmp_path / "building.yaml").write_text(make_building_text())
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        "building: building.yaml\nhorizon_days: 1\nreplications: 2\n"
        "population: {size: 4}\n"
    )
    tracer = _load_tracer()

    recorder = tracer.Recorder()
    try:
        recorder.install(tracer.wrap_targets())
        assert cli.main(["validate", "--scenario", str(scenario)]) == 0
    finally:
        assert recorder.restore() is True
    assert recorder.stats["scenario_io.parse_scenario"]["calls"] == 1
    assert recorder.stats["building.load_building_file"]["calls"] == 1

    recorder = tracer.Recorder()
    try:
        recorder.install(tracer.wrap_targets())
        code = cli.main(
            ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        )
    finally:
        assert recorder.restore() is True
    assert code == 0
    assert recorder.stats["engine.run_experiment"]["calls"] >= 1
    assert recorder.stats["scenario_io.emit"]["outcomes"] > 0
