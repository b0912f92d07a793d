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
from oblix.cli import load_run_config
from oblix.oblivious import default_lexicon
from oblix.protocol import (
    Daemon,
    GenerateRequest,
    GenerateResponse,
    Server,
    SessionConfig,
    SocketTransport,
    client_run_session,
)
from oblix.schedule import NoiseSchedule
from oblix.tensor import Rng

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_module(path, monkeypatch):
    # its siblings load by bare name, as the benchmark runs them, and are
    # dropped afterwards
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
    return module


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_benchmark_module_imports(path, monkeypatch):
    # each one imports oblix names at load, so a rename or removal in
    # `src/` fails here, not only in a benchmark run
    _benchmark_module(path, monkeypatch)


# closed-form (server, device) FLOPs the benchmark expects of a session at
# latent seed 5, per workload and candidate count
BENCHMARK_FLOPS = {
    ("interactive-gated", 1): (280_877_056, 718_464_000),
    ("interactive-gated", 2): (483_995_648, 718_464_000),
    ("interactive-gated", 6): (1_296_470_016, 718_464_000),
    ("interactive-gated", 30): (6_171_316_224, 718_464_000),
    ("bulk-ungated", 1): (1_197_440_000, 0),
    ("bulk-ungated", 2): (2_394_880_000, 0),
    ("bulk-ungated", 6): (7_184_640_000, 0),
    ("bulk-ungated", 30): (35_923_200_000, 0),
    ("attest-corpus", 1): (280_877_056, 718_464_000),
    ("attest-corpus", 2): (483_995_648, 718_464_000),
    ("attest-corpus", 6): (1_296_470_016, 718_464_000),
    ("attest-corpus", 30): (6_171_316_224, 718_464_000),
}


def test_the_benchmark_reads_the_session_config_of_each_workload(
        tmp_path, monkeypatch):
    # the benchmark reads the cloud and device schedules of the config it
    # writes for each check; otherwise only perfbench's own tests read them
    workloads = _benchmark_module(PERFBENCH / "workloads.py", monkeypatch)
    checks = _benchmark_module(PERFBENCH / "checks.py", monkeypatch)
    got = {}
    for name, w in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.config_text(w, 7410))
        rc = load_run_config(str(path))
        cfg = checks.session_cfg(rc.session, 5, w.switch_point)
        for n in (1, 2, 6, 30):
            got[name, n] = checks.expected_flops(rc.model, cfg, n)
    assert got == BENCHMARK_FLOPS


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


def test_the_tracer_joins_server_spans_to_their_session():
    # a daemon decodes, handles and encodes each request on one thread of
    # its compute pool, and the decoded request names the session there,
    # so the server's spans join the client session that caused them
    tracing = _tracing()
    cfg = SessionConfig(seed=7, accel=oblix.accel.AccelConfig(
        switch_point=3, cache_point=oblix.accel.never(8),
        skip_point=oblix.accel.never(8)), cloud_schedule=NoiseSchedule(8))
    w = oblix.denoiser.ModelWeights.build(oblix.denoiser.ModelConfig(), 1001)
    daemon = Daemon(("127.0.0.1", 0), Server({cfg.model_id: w}))
    daemon.serve_in_background()
    transport = SocketTransport(*daemon.server_address)
    tracer = tracing.Tracer()
    try:
        with tracing.patched(tracer), tracer.op("s7"):
            client_run_session("portrait of a young man", cfg, transport, w,
                               default_lexicon())
    finally:
        transport.close()
        daemon.shutdown()
        daemon.server_close()
    names = ("protocol.handle_request", "denoiser.server_steps",
             "protocol.encode_response")
    assert {name: [span[3] for span in tracer.spans if span[2] == name]
            for name in names} == {name: ["s7"] for name in names}


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
    # 4 trunk products, a product per row for each of the two mixes and
    # one output projection; per site the output projection, a query, a key
    # and a value projection and a map-times-value block product per chunk,
    # and a score product per row
    chunks = {kv: -(-n // max(1, oblix.accel.MAP_CHUNK_BYTES // (4 * s * kv)))
              for kv in (s, t)}
    assert chunks == {s: 8, t: 1}
    products = 4 + 2 * n + 1 + 3 * sum(1 + 4 * chunks[kv] + n for kv in (s, t))
    assert products == 359
    assert len(spans) == len(counted) == products
    # the 11 biased layers (w_in, w_down, w_mid, w_up, w_out and six wo) and
    # the scale of each (row, site) score product
    fused = n * s * (10 * d + c) + n * 3 * s * (s + t)
    assert sum(span[6] for span in spans) == sum(counted) - fused


def test_no_product_of_a_forward_spans_two_batch_rows(monkeypatch):
    # tensor.matmul's block rule: every matrix that numpy multiplies in a
    # server run holds rows of at most one batch row (S tokens or T text
    # rows), so no BLAS kernel can give a row bits that depend on the batch;
    # the paper-default gates cover shared maps, cached sites and skips
    cfg = oblix.denoiser.ModelConfig()
    w = oblix.denoiser.ModelWeights.build(cfg, 1001)
    n, s = 30, cfg.tokens
    texts = [oblix.denoiser.embed_prompt(f"candidate {i} of a calm forest", cfg)
             for i in range(n)]
    latents = np.stack([Rng(i).gaussian((cfg.channels, cfg.res, cfg.res))
                        for i in range(n)])
    shapes, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    oblix.denoiser.unet_forward(latents, texts, 1, w)
    accel = oblix.accel.AccelConfig(switch_point=10, cache_point=4,
                                    skip_point=6, reuse=True)
    oblix.denoiser.run_denoise_steps(latents, texts, NoiseSchedule(25), w,
                                     1, 10, accel)
    assert len(shapes) > 359
    tall = [(a, b) for a, b in shapes if a[-2] > s or b[-2] > s]
    assert tall == []
