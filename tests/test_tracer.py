"""The benchmark's tracer wraps names that must exist in the package."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # building a Tracer looks up every wrapped attribute and installs nothing
    tracer = module.Tracer()
    assert tracer._patches
    for owner, attr, original, _ in tracer._patches:
        assert getattr(owner, attr) is original
