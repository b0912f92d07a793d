"""The benchmark's tracer patches oblix by attribute name and reads some
arguments by position; these checks make a rename in `src/` fail here,
not only in a traced benchmark run."""

import importlib.util
import inspect
import os
import pathlib
import sys

import numpy as np
import pytest

import oblix.accel
import oblix.denoiser
import oblix.security
import oblix.tensor
from oblix.oblivious import default_lexicon
from oblix.protocol import GenerateRequest, GenerateResponse, SessionConfig
from oblix.tensor import Rng

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_benchmark_module_imports(path, monkeypatch):
    # each one imports oblix names at load, so a rename or removal in
    # `src/` fails here, not only in a benchmark run; its siblings load by
    # bare name, as the benchmark runs them, and are dropped afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py and pin_digests.py pin one BLAS thread in the environment
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    before = set(sys.modules)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in (getattr(sys.modules[name], "__file__", None)
                                  or ""):
                del sys.modules[name]


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


def test_tracer_records_each_members_expansion():
    # the per-layer expansion figures count one span per expansion: the
    # class's own and one per replayed member, each of the class's size
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        verdict = oblix.security.check_indistinguishability(
            "portrait of a young african man", default_lexicon(), 3,
            SessionConfig())
    assert verdict.passed and verdict.class_size == 30
    names = {span[0]: span[2] for span in tracer.spans}
    for name in ("oblivious.expand_candidates", "oblivious.detect_attributes"):
        spans = [span for span in tracer.spans if span[2] == name]
        callers = sorted(names[span[1]] for span in spans)
        assert callers == (["protocol.build_request"] * 30
                           + ["security.check_indistinguishability"])
    assert {span[8] for span in tracer.spans
            if span[2] == "oblivious.expand_candidates"} == {30}


def test_tracer_sees_every_product_of_an_ungated_forward():
    # the per-layer tensor.matmul_* figures wrap the matmul names of
    # oblix.denoiser and oblix.accel: a product made through any other name
    # (say a separate helper for the 11 biased layers) would drop out here
    tracing = _tracing()
    assert {(owner, attr) for owner, attr, *_ in tracing._TARGETS
            if attr == "matmul"} == {(oblix.denoiser, "matmul"),
                                     (oblix.accel, "matmul")}
    cfg = oblix.denoiser.ModelConfig()
    w = oblix.denoiser.ModelWeights.build(cfg, 1001)
    text = oblix.denoiser.embed_prompt("portrait of a man", cfg)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        oblix.denoiser.unet_forward(Rng(1).gaussian((1, 4, 16, 16)), [text],
                                    1, w)
    assert [span[2] for span in tracer.spans].count("tensor.matmul") == 43


def test_tracer_sees_every_product_of_an_n30_forward(monkeypatch):
    # at N=30 attention runs in chunks of rows, and each product, a block
    # product too, is one call through a matmul name the tracer wraps: the
    # spans' 2mnp, on the stacked shapes, sum to what tensor.matmul counts,
    # less the m*p of each fused bias or scale, which the tracer leaves out
    tracing = _tracing()
    cfg = oblix.denoiser.ModelConfig()
    w = oblix.denoiser.ModelWeights.build(cfg, 1001)
    n, s, t, d, c = 30, cfg.tokens, cfg.token_capacity, cfg.width, cfg.channels
    texts = [oblix.denoiser.embed_prompt(f"candidate {i} of a calm forest", cfg)
             for i in range(n)]
    latents = np.stack([Rng(i).gaussian((c, cfg.res, cfg.res))
                        for i in range(n)])
    counted = []
    count = oblix.tensor._count

    def spy(flops):
        if sys._getframe(1).f_code is oblix.tensor.matmul.__code__:
            counted.append(flops)
        count(flops)

    monkeypatch.setattr(oblix.tensor, "_count", spy)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        oblix.denoiser.unet_forward(latents, texts, 1, w)
    spans = [span for span in tracer.spans if span[2] == "tensor.matmul"]
    # 6 trunk products and one output projection; per site the output
    # projection, a query, a key and a value projection and a map-times-value
    # block product per chunk, and a score product per row
    chunks = {kv: -(-n // max(1, oblix.accel.MAP_CHUNK_BYTES // (4 * s * kv)))
              for kv in (s, t)}
    assert chunks == {s: 8, t: 1}
    products = 6 + 1 + 3 * sum(1 + 4 * chunks[kv] + n for kv in (s, t))
    assert products == 301
    assert len(spans) == len(counted) == products
    # the 11 biased layers (w_in, w_down, w_mid, w_up, w_out and six wo) and
    # the scale of each (row, site) score product
    fused = n * s * (10 * d + c) + n * 3 * s * (s + t)
    assert sum(span[6] for span in spans) == sum(counted) - fused
