"""The benchmark's tracer patches oblix by attribute name and reads some
arguments by position; these checks make a rename in `src/` fail here,
not only in a traced benchmark run."""

import importlib.util
import inspect
import pathlib

import oblix.denoiser
from oblix.protocol import GenerateRequest, GenerateResponse

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    targets = _tracing()._TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in targets if not hasattr(owner, attr)]
    assert targets and missing == []


def test_run_denoise_steps_positions_the_tracer_reads():
    # latents (args[0]), first and last iteration (args[4], args[5]) and
    # the gate config (args[6]), whose presence marks a server run
    params = list(inspect.signature(oblix.denoiser.run_denoise_steps).parameters)
    assert params[0] == "latents"
    assert params[4:7] == ["first_iter", "last_iter", "accel"]


def test_message_fields_the_tracer_reads():
    assert {"candidates", "seed"} <= set(GenerateRequest.__dataclass_fields__)
    assert "flops_total" in GenerateResponse.__dataclass_fields__
