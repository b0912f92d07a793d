"""Tests of the benchmark itself: its checks, its inputs and its output.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import loadgen
import oblix.security
from metrics import END_TO_END, PER_LAYER, tail
from oblix.cli import load_run_config
from oblix.oblivious import default_lexicon, detect_attributes, expand_candidates
from oblix.protocol import Server, SimulatedTransport, client_run_session
from workloads import (
    WORKLOADS,
    attest_order,
    attest_seeds,
    session_stream,
    warmup_spec,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


@pytest.fixture(scope="module")
def interactive(tmp_path_factory):
    w = WORKLOADS["interactive-gated"]
    rc = load_run_config(loadgen.write_config(
        w, 0, str(tmp_path_factory.mktemp("cfg"))))
    spec = warmup_spec(w, 0, 0)
    cfg = checks.session_cfg(rc.session, spec.latent_seed, spec.switch_point)
    transport = SimulatedTransport(Server({rc.model_id: rc.cloud_weights}))
    result = client_run_session(spec.prompt, cfg, transport,
                                rc.device_weights, rc.lexicon)
    rec = checks.SessionRecord(w.name, spec.prompt, spec.latent_seed,
                               spec.switch_point, True)
    checks.fill_record(rec, result)
    expected = checks.expected_flops(rc.model, cfg, rec.size)
    pinned = {checks.session_key(w.name, spec.prompt, spec.latent_seed,
                                 spec.switch_point):
              {"image": rec.image_sha, "latents": rec.latents_sha}}
    return rc, rec, expected, pinned


def test_real_session_passes_its_checks(interactive):
    _, rec, expected, pinned = interactive
    assert checks.check_session(rec, expected, pinned) == []
    assert checks.is_pinned(rec, pinned)


@pytest.mark.parametrize("field", ["image_sha", "latents_sha"])
def test_tampered_digest_is_a_failure(interactive, field):
    _, rec, expected, pinned = interactive
    bad = replace(rec, **{field: "0" * 64})
    assert len(checks.check_session(bad, expected, pinned)) == 1


@pytest.mark.parametrize("delta", [(1, 0), (0, -1)])
def test_tampered_flops_expectation_is_a_failure(interactive, delta):
    _, rec, (server, device), pinned = interactive
    tampered = (server + delta[0], device + delta[1])
    assert len(checks.check_session(rec, tampered, pinned)) == 1


def test_replay_is_bitwise_and_mismatch_is_a_failure(interactive):
    rc, rec, _, _ = interactive
    assert checks.check_replay(rec, checks.replay_digests(rc, rec)) == []
    assert checks.check_replay(rec, ("0" * 64, rec.latents_sha))


def test_session_error_is_a_failure(interactive):
    _, rec, expected, pinned = interactive
    assert checks.check_session(replace(rec, error="boom"), expected, pinned)


@pytest.mark.parametrize("name", ["interactive-gated", "bulk-ungated"])
def test_session_inputs_are_a_pure_function_of_the_seed(name):
    w = WORKLOADS[name]

    def first(seed, client=0):
        return list(itertools.islice(session_stream(w, seed, client), 12))

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert first(3, 0) != first(3, 1)
    assert warmup_spec(w, 3, 0) == warmup_spec(w, 3, 0)
    assert warmup_spec(w, 3, 0) != warmup_spec(w, 4, 0)
    seeds = [s.latent_seed for s in first(3)]
    assert len(set(seeds)) == len(seeds)


def test_attest_inputs_are_a_pure_function_of_the_seed():
    def first(seed):
        return list(itertools.islice(attest_seeds(seed), 4))

    assert first(5) == first(5) and first(5) != first(6)
    assert attest_order(5, 0, 300) == attest_order(5, 0, 300)
    assert attest_order(5, 0, 300) != attest_order(6, 0, 300)
    assert sorted(attest_order(5, 1, 300)) == list(range(300))


def test_interactive_sizes_come_in_equal_shares():
    lex = default_lexicon()
    specs = list(itertools.islice(
        session_stream(WORKLOADS["interactive-gated"], 9, 0), 16))
    sizes = [s.size for s in specs]
    assert sorted(sizes) == sorted([1, 2, 6, 30] * 4)
    for spec in specs:
        cset = expand_candidates(spec.prompt,
                                 detect_attributes(spec.prompt, lex), lex)
        assert cset.size == spec.size


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 101)]
    value, pct, beyond = tail(xs)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in xs) == 10
    assert tail([1.0, 2.0, 3.0])[0] == 2.0


def test_negative_control_that_passes_is_a_failure(monkeypatch, tmp_path):
    w = WORKLOADS["attest-corpus"]
    rc = load_run_config(loadgen.write_config(w, 0, str(tmp_path)))
    prompts = ["portrait of a young male in a garden"]
    passing = oblix.security.ObliviousnessVerdict(6, True)
    monkeypatch.setattr(oblix.security, "check_indistinguishability",
                        lambda *a, **k: passing)
    loop = loadgen.AttestLoop(1, rc, prompts)
    loop.run(0.01)
    assert any("negative control" in f for f in loop.fails)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (unit, _) in END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(workload, trace, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("attest-corpus", 0), ("attest-corpus", 1),
    ("interactive-gated", 0), ("interactive-gated", 1),
    ("bulk-ungated", 0),
])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = PER_LAYER if trace else \
        {name: unit for name, (unit, _) in END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    for name, unit in table.items():
        assert any(line.startswith(f"metric {name}") and line.endswith(unit)
                   for line in lines), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_program_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("attest-corpus", 0, cwd=tmp_path,
                run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
