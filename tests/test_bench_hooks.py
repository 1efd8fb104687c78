"""The benchmark's layer hooks must find every function they wrap:
``perfbench/run.py`` only prints the names ``perfbench/tracer.py`` could
not find, so a rename in the package would silently zero a layer metric."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_layer_hook_finds_its_target_and_is_restored():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = tracer.Recorder()
    try:
        assert recorder.install(tracer.wrap_targets()) == []
    finally:
        assert recorder.restore() is True
