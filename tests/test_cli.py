import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oblix.cli
from oblix.accel import AccelConfig
from oblix.cli import (
    BENCH_PROMPTS,
    build_parser,
    cmd_attest,
    load_run_config,
    main,
    write_ppm,
)
from oblix.costmodel import attention_map_flops, expected_run_flops, step_flops
from oblix.denoiser import ModelConfig, ModelWeights
from oblix.errors import ConfigError
from oblix.protocol import (
    MAX_SCHEDULE_STEPS,
    Daemon,
    Server,
    SessionConfig,
)
from oblix.schedule import NoiseSchedule


def _write_config(tmp_path, **overrides):
    lines = {
        "model": {"id": "toy", "cloud_seed": "1001", "device_seed": "1001",
                  "res": "8", "width": "16", "d_text": "16",
                  "token_capacity": "8"},
        "schedule": {"steps": "8"},
        "accel": {"switch_point": "4"},
        "run": {"seed": "42",
                "out": str(tmp_path / "out.ppm"),
                "report": str(tmp_path / "report.jsonl")},
    }
    for section, kv in overrides.items():
        lines.setdefault(section, {}).update(kv)
    path = tmp_path / "run.ini"
    with open(path, "w") as f:
        for section, kv in lines.items():
            f.write(f"[{section}]\n")
            for k, v in kv.items():
                f.write(f"{k} = {v}\n")
    return str(path)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_sample(tmp_path) -> str:
    sample = README.read_text(encoding="utf-8").split("```ini\n", 1)[1]
    path = tmp_path / "run.ini"
    path.write_text(sample.split("```", 1)[0], encoding="utf-8")
    return str(path)


def test_readme_config_sample_loads(tmp_path):
    rc = load_run_config(_readme_sample(tmp_path))
    assert (rc.cloud_weights.seed, rc.device_weights.seed) == (1001, 2002)
    assert rc.session.cloud_schedule.spacing == "scaled-linear"
    accel = rc.session.accel
    assert (accel.switch_point, accel.cache_point, accel.skip_point,
            accel.reuse) == (10, 4, 6, True)
    assert rc.session.seed == 42


# one session on the README config, as `oblix serve` and `oblix client` run
# it, in a fresh interpreter; prints the TLS and hash modules it loaded
SERVE_AND_FINISH = """
import sys
from dataclasses import replace
from oblix.cli import BENCH_PROMPTS, load_run_config
from oblix.protocol import Server, SimulatedTransport, client_run_session
rc = load_run_config(sys.argv[1])
cfg = replace(rc.session, accel=replace(rc.session.accel, switch_point=2))
server = Server({rc.model_id: rc.cloud_weights})
result = client_run_session(BENCH_PROMPTS[2], cfg, SimulatedTransport(server),
                            rc.device_weights, rc.lexicon)
assert result.candidates.size == 2 and len(result.response.step_costs) == 2
assert result.device_counter.total > 0
print(sorted({"_hashlib", "hashlib", "_ssl", "ssl"} & set(sys.modules)))
"""


def test_serving_and_the_device_finish_load_no_openssl(tmp_path):
    # OpenSSL adds about 3.6 MB to every process that loads it; only the
    # attest adversary hashes, and it imports hashlib itself
    src = str(pathlib.Path(oblix.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SERVE_AND_FINISH, _readme_sample(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# `oblix serve` up to its first request, in a fresh interpreter: prints the
# threads then running and whether the row-shard helpers' pool module was
# loaded by it
SERVE_UNTIL_FIRST_REQUEST = """
import sys, threading
loaded = "concurrent.futures" in sys.modules
from oblix.cli import load_run_config
from oblix.protocol import Daemon, Server
rc = load_run_config(sys.argv[1])
daemon = Daemon(("127.0.0.1", 0), Server({rc.model_id: rc.cloud_weights}))
print([t.name for t in threading.enumerate()],
      not loaded and "concurrent.futures" in sys.modules)
daemon.server_close()
"""


def test_a_started_daemon_runs_one_thread_and_no_pool(tmp_path):
    # row shards cost set-up nothing: the helpers' pool is imported (3.6 ms)
    # and its thread started at the first grant, not at start-up
    src = str(pathlib.Path(oblix.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SERVE_UNTIL_FIRST_REQUEST,
         _readme_sample(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "['MainThread'] False"


def test_a_config_of_only_weight_seeds_takes_every_dataclass_default(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\ncloud_seed = 1\ndevice_seed = 2\n")
    rc = load_run_config(str(path))
    assert rc.model == ModelConfig()
    never = NoiseSchedule().steps + 1  # the config's "never" gate default
    assert rc.session == SessionConfig(
        accel=AccelConfig(cache_point=never, skip_point=never))
    assert (rc.host, rc.port, rc.out_path, rc.report_path) == (
        "127.0.0.1", 7410, "oblix_out.ppm", "oblix_report.jsonl")


def test_empty_spacing_means_the_default(tmp_path):
    path = _write_config(tmp_path, schedule={"spacing": ""})
    assert load_run_config(path).session.cloud_schedule.spacing == \
        NoiseSchedule().spacing


# (section, key) -> the RunConfig value it sets and that value's default
EMPTY_MEANS_DEFAULT = {
    ("model", "id"): (lambda rc: (rc.model_id, rc.session.model_id),
                      ("toy", "toy")),
    ("transport", "host"): (lambda rc: rc.host, "127.0.0.1"),
    ("run", "out"): (lambda rc: rc.out_path, "oblix_out.ppm"),
    ("run", "report"): (lambda rc: rc.report_path, "oblix_report.jsonl"),
}


@pytest.mark.parametrize("section,key", EMPTY_MEANS_DEFAULT,
                         ids=[f"{s}.{k}" for s, k in EMPTY_MEANS_DEFAULT])
def test_an_empty_string_key_means_its_default(tmp_path, section, key):
    # an empty value is refused at load or taken as the default, never
    # carried into a session that fails only once it has run
    read, default = EMPTY_MEANS_DEFAULT[section, key]
    path = _write_config(tmp_path, **{section: {key: ""}})
    assert read(load_run_config(path)) == default


def test_missing_config_is_an_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "nope.ini"))


def test_missing_weights_file_fails_before_compute(tmp_path):
    path = _write_config(tmp_path, model={"cloud_path": "/does/not/exist"})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "cloud_path" in str(err.value)


def test_switch_point_beyond_schedule_is_rejected(tmp_path):
    path = _write_config(tmp_path, accel={"switch_point": "9"})
    with pytest.raises(ConfigError):
        load_run_config(path)


# betas whose alpha_bar falls below float32's smallest normal within the
# steps the cloud or only the device runs; no cloud step runs in either
ALPHA_BAR_BELOW_FLOOR = {
    "cloud schedule": {"steps": "1000"},
    "device schedule": {"steps": "25", "device_steps": "200"},
}


@pytest.mark.parametrize("schedule", ALPHA_BAR_BELOW_FLOOR.values(),
                         ids=ALPHA_BAR_BELOW_FLOOR.keys())
def test_a_schedule_below_the_alpha_bar_floor_is_refused_at_load(
        tmp_path, capsys, monkeypatch, schedule):
    path = _write_config(tmp_path, accel={"switch_point": "0"}, schedule={
        "beta_start": "0.5", "beta_end": "0.999", "spacing": "linear",
        **schedule})
    with pytest.raises(ConfigError, match="alpha_bar"):
        load_run_config(path)
    monkeypatch.setattr(oblix.cli, "client_run_session", None)  # no compute
    assert main(["generate", "--config", path, "--prompt", "a red bicycle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: schedule ends at alpha_bar")
    assert len(err.splitlines()) == 1


# one step past the cap, in the cloud schedule and in the device's: the
# config's [schedule] keys and the session config they make
OVER_THE_STEP_CAP = {
    "cloud schedule": (
        {"steps": str(MAX_SCHEDULE_STEPS + 1)},
        lambda: SessionConfig(cloud_schedule=NoiseSchedule(
            MAX_SCHEDULE_STEPS + 1))),
    "device schedule": (
        {"device_steps": str(MAX_SCHEDULE_STEPS + 1)},
        lambda: SessionConfig(device_steps=MAX_SCHEDULE_STEPS + 1)),
}


@pytest.mark.parametrize("schedule, make", OVER_THE_STEP_CAP.values(),
                         ids=OVER_THE_STEP_CAP.keys())
def test_a_schedule_over_the_step_cap_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch, schedule, make):
    monkeypatch.setattr(oblix.cli, "client_run_session", None)  # no compute
    path = _write_config(tmp_path, accel={"switch_point": "0"},
                         schedule=schedule)
    assert main(["generate", "--config", path, "--prompt", "a red bicycle"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {MAX_SCHEDULE_STEPS + 1} schedule steps exceed "
                   f"the cap of {MAX_SCHEDULE_STEPS}\n")
    # the build fills three steps-long lists, about 120 KB at the cap, so a
    # step count must not size any allocation before the cap refuses it
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceed the cap"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


@pytest.mark.parametrize("value", ["0", "-3"])
def test_device_steps_below_one_is_rejected(tmp_path, value):
    path = _write_config(tmp_path, schedule={"device_steps": value})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "device_steps" in str(err.value)


def test_non_integer_seed_is_a_config_error(tmp_path):
    path = _write_config(tmp_path, model={"cloud_seed": "not-a-number"})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "cloud_seed" in str(err.value)


@pytest.mark.parametrize("section,key,value", [
    ("model", "res", "abc"),
    ("accel", "switch_point", "x"),
    ("accel", "reuse", "maybe"),
    ("schedule", "beta_end", "small"),
    ("transport", "port", "http"),
])
def test_unconvertible_value_is_a_config_error_naming_it(tmp_path, capsys,
                                                         section, key, value):
    path = _write_config(tmp_path, **{section: {key: value}})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert f"[{section}] {key}" in str(err.value)
    assert value in str(err.value)
    assert main(["generate", "--config", path, "--prompt", "a red bicycle"]) == 2
    assert f"error: [{section}] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["-1", "65536", "70000"])
@pytest.mark.parametrize("command, key", [("serve", "[transport] port"),
                                          ("client", "[transport] port"),
                                          ("client", "--port")])
def test_a_port_outside_its_range_exits_2_naming_the_key(tmp_path, capsys,
                                                         command, key, port):
    # refused at load, before a socket binds or connects to it
    if key == "--port":
        path, flag = _write_config(tmp_path), ["--port", port]
    else:
        path, flag = _write_config(tmp_path, transport={"port": port}), []
    prompt = ["--prompt", "portrait of a man"] if command == "client" else []
    assert main([command, "--config", path, *prompt, *flag]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} = {port} is outside the port range 0..65535\n"


@pytest.mark.parametrize("betas", [("1e40", "1e+40"), ("1e-50", "1e-50"),
                                   ("0.99999999", "0.99999999")],
                         ids=["past binary32", "rounds to 0", "rounds to 1"])
def test_betas_out_of_range_as_configured_or_in_binary32_exit_2(
        tmp_path, capsys, betas):
    # checked as configured before the binary32 rounding, which would
    # overflow 1e40 to inf with a numpy warning, and checked again after it
    value, shown = betas
    path = _write_config(tmp_path, schedule={"beta_start": value,
                                             "beta_end": value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["generate", "--config", path, "--prompt", "a red bicycle"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need 0 < beta_start <= beta_end < 1")
    assert f"got {shown}, {shown}" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("key,value", [
    ("bandwidth_bps", "nan"),
    ("bandwidth_bps", "inf"),
    ("bandwidth_bps", "0"),
    ("rtt_s", "nan"),
    ("rtt_s", "-0.01"),
])
def test_channel_values_outside_their_range_are_config_errors(tmp_path, capsys,
                                                             key, value):
    path = _write_config(tmp_path, channel={key: value})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert f"[channel] {key}" in str(err.value)
    assert main(["generate", "--config", path, "--prompt", "a red bicycle"]) == 2
    assert f"error: [channel] {key}" in capsys.readouterr().err


def test_report_is_strict_json(tmp_path):
    def refuse(constant):
        raise AssertionError(f"report holds {constant}")

    path = _write_config(tmp_path, channel={"bandwidth_bps": "1e6",
                                            "rtt_s": "0.05"})
    assert main(["generate", "--config", path,
                 "--prompt", "portrait of a man"]) == 0
    lines = (tmp_path / "report.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    assert records[0]["modeled_transfer_s"] > 0.05


def test_boolean_keys_take_configparser_spellings(tmp_path):
    for value, want in (("on", True), ("YES", True), ("1", True),
                        ("off", False), ("no", False), ("0", False)):
        path = _write_config(tmp_path, accel={"reuse": value})
        assert load_run_config(path).session.accel.reuse is want, value


@pytest.mark.parametrize("text", [
    "reuse = true\n",                          # no section header
    "[accel]\nreuse = true\n[accel]\n",        # repeated section
    "[accel]\nreuse = true\nreuse = false\n",  # repeated key
    "[accel]\nthis line is not a key\n",
])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_run_config(str(path))
    assert "does not parse" in str(err.value)
    assert main(["generate", "--config", str(path), "--prompt", "a cat"]) == 2
    assert "error:" in capsys.readouterr().err


def test_weights_paths_are_loaded(tmp_path):
    from oblix.denoiser import ModelWeights
    cfg = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
    wpath = tmp_path / "m.oblw"
    ModelWeights.build(cfg, 5).save(str(wpath))
    path = _write_config(tmp_path, model={
        "cloud_path": str(wpath), "device_path": str(wpath),
        "cloud_seed": "", "device_seed": ""})
    rc = load_run_config(path)
    assert rc.cloud_weights.fingerprint() == rc.device_weights.fingerprint()


def test_cloud_and_device_latent_geometry_must_match(tmp_path, capsys,
                                                     monkeypatch):
    # width, d_text and token capacity may differ; channels and res may not
    small = ModelConfig(res=8, width=8, d_text=8, token_capacity=4)
    wpath = tmp_path / "cloud.oblw"
    ModelWeights.build(small, 5).save(str(wpath))
    load_run_config(_write_config(tmp_path, model={
        "cloud_path": str(wpath), "cloud_seed": ""}))

    ModelWeights.build(dataclasses.replace(small, res=4), 5).save(str(wpath))
    path = _write_config(tmp_path, model={"cloud_path": str(wpath),
                                          "cloud_seed": ""})
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "cloud" in str(err.value) and "device" in str(err.value)
    monkeypatch.setattr(oblix.cli, "client_run_session", None)  # no compute
    assert main(["generate", "--config", path,
                 "--prompt", "portrait of a man"]) == 2
    assert "error: cloud weights" in capsys.readouterr().err


# --- when a seeded model is drawn -------------------------------------------------

@pytest.fixture
def draws(monkeypatch):
    """The (config, seed) of every model that ModelWeights.build draws."""
    drawn = []
    build = ModelWeights.build.__func__

    def spy(cls, cfg, seed):
        drawn.append((cfg, seed))
        return build(cls, cfg, seed)

    monkeypatch.setattr(ModelWeights, "build", classmethod(spy))
    return drawn


def test_a_seeded_model_is_drawn_once_on_its_first_read(tmp_path, draws):
    path = _write_config(tmp_path, model={"device_seed": "2002"})
    rc = load_run_config(path)
    assert draws == []
    cloud = rc.cloud_weights
    assert draws == [(rc.model, 1001)]
    assert rc.cloud_weights is cloud
    device = rc.device_weights
    assert draws == [(rc.model, 1001), (rc.model, 2002)]
    assert rc.device_weights is device
    assert cloud.fingerprint() == ModelWeights.build(rc.model, 1001).fingerprint()
    assert device.fingerprint() == \
        ModelWeights.build(rc.model, 2002).fingerprint()


class _NoDaemon:
    """Stands in for the daemon: binds nothing and stops at once."""

    server_address = ("127.0.0.1", 0)

    def __init__(self, address, server):
        pass

    def serve_forever(self):
        raise KeyboardInterrupt

    def shutdown(self):
        pass


def _no_session(prompt, session, transport, device_weights, lexicon):
    raise ConfigError("no session in this test")


# the seeds each command draws: cloud_seed 1001, device_seed 2002
COMMAND_DRAWS = {
    "attest": ([], []),
    "generate": ([], [1001, 2002]),
    "serve": ([], [1001]),
    "client": (["--port", "1"], [2002]),
}


@pytest.mark.parametrize("command", COMMAND_DRAWS)
def test_each_command_draws_only_the_models_it_runs(tmp_path, monkeypatch,
                                                    draws, command):
    argv, seeds = COMMAND_DRAWS[command]
    monkeypatch.setattr(oblix.cli, "Daemon", _NoDaemon)
    if command == "client":  # the session reads the device model, then stops
        monkeypatch.setattr(oblix.cli, "client_run_session", _no_session)
    path = _write_config(tmp_path, model={"device_seed": "2002"})
    prompt = [] if command == "serve" else ["--prompt", "portrait of a man"]
    main([command, "--config", path, *prompt, *argv])
    assert [seed for _, seed in draws] == seeds


def test_refusals_at_load_draw_no_model(tmp_path, draws):
    wrong_res = tmp_path / "res4.oblw"
    ModelWeights.build(ModelConfig(res=4, width=16, d_text=16,
                                   token_capacity=8), 5).save(str(wrong_res))
    draws.clear()
    refused = {
        "device_seed": {"device_seed": ""},
        "cloud_path": {"cloud_path": str(tmp_path / "missing.oblw")},
        "cloud_seed": {"cloud_seed": "not-a-number"},
        "device weights": {"cloud_path": str(wrong_res), "cloud_seed": ""},
    }
    for named, model in refused.items():
        with pytest.raises(ConfigError, match=named):
            load_run_config(_write_config(tmp_path, model=model))
    assert draws == []


def test_generate_writes_image_and_report(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = main(["generate", "--config", path,
                 "--prompt", "portrait of a young man"])
    assert code == 0
    out = capsys.readouterr().out
    assert "candidates N=6" in out
    raw = (tmp_path / "out.ppm").read_bytes()
    assert raw.startswith(b"P6\n32 32\n255\n")
    assert len(raw) == len(b"P6\n32 32\n255\n") + 3 * 32 * 32
    report_lines = (tmp_path / "report.jsonl").read_text().splitlines()
    summary = json.loads(report_lines[0])
    model_cfg = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
    rc = load_run_config(path)
    assert summary["server_flops"] == expected_run_flops(
        model_cfg, 6, rc.session.accel, 1, 4)


def test_generate_k0_notes_device_only(tmp_path, capsys):
    path = _write_config(tmp_path, accel={"switch_point": "0"})
    code = main(["generate", "--config", path, "--prompt", "a red bicycle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "device-only" in out


def test_generate_seed_flag_overrides_config(tmp_path):
    path = _write_config(tmp_path)
    main(["generate", "--config", path, "--prompt", "a red bicycle",
          "--seed", "1", "--out", str(tmp_path / "a.ppm")])
    main(["generate", "--config", path, "--prompt", "a red bicycle",
          "--seed", "2", "--out", str(tmp_path / "b.ppm")])
    assert (tmp_path / "a.ppm").read_bytes() != (tmp_path / "b.ppm").read_bytes()


def test_generate_is_reproducible_from_config_and_seed(tmp_path):
    path = _write_config(tmp_path)
    main(["generate", "--config", path, "--prompt", "portrait of a man",
          "--out", str(tmp_path / "x.ppm")])
    first = (tmp_path / "x.ppm").read_bytes()
    main(["generate", "--config", path, "--prompt", "portrait of a man",
          "--out", str(tmp_path / "x.ppm")])
    assert (tmp_path / "x.ppm").read_bytes() == first


def test_ppm_writer_validates_shape(tmp_path):
    with pytest.raises(ConfigError):
        write_ppm(np.zeros((4, 4), np.float32), str(tmp_path / "x.ppm"))


# --- bench -------------------------------------------------------------------------

def test_bench_grid_records(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "bench.jsonl"
    code = main(["bench", "--config", path,
                 "--grid", "k=0,4,8 N=1 reuse=0", "--out", str(out)])
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 3
    by_k = {r["k"]: r for r in records}
    model_cfg = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
    # endpoints: k=0 is device-only, k=T leaves the device with zero steps
    assert by_k[0]["server_flops"] == 0
    assert by_k[0]["device_flops"] == 8 * step_flops(model_cfg, 1)
    assert by_k[8]["device_flops"] == 0
    assert by_k[8]["server_flops"] == 8 * step_flops(model_cfg, 1)
    # server cost is monotone in k at fixed accel
    ks = sorted(by_k)
    assert all(by_k[a]["server_flops"] <= by_k[b]["server_flops"]
               for a, b in zip(ks, ks[1:]))


def test_bench_reuse_savings_match_closed_form(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "bench.jsonl"
    code = main(["bench", "--config", path,
                 "--grid", "k=8 N=6 reuse=0,1", "--out", str(out)])
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    plain = next(r for r in records if not r["reuse"])
    reused = next(r for r in records if r["reuse"])
    model_cfg = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
    sites = ("down.self", "down.cross", "mid.self", "mid.cross",
             "up.self", "up.cross")
    per_step_map = sum(attention_map_flops(model_cfg, s) for s in sites)
    want_saving = 8 * (6 - 1) * per_step_map   # (N-1)/N of the map work
    assert plain["server_flops"] - reused["server_flops"] == want_saving


def test_bench_rejects_unknown_axis(tmp_path):
    path = _write_config(tmp_path)
    assert main(["bench", "--config", path, "--grid", "q=1"]) == 2
    assert main(["bench", "--config", path, "--grid", "N=7"]) == 2


@pytest.mark.parametrize("grid,names", [
    ("k=x", "grid axis k value 'x'"),
    ("N=abc", "grid axis N value 'abc'"),
    ("r=4.5", "grid axis r value '4.5'"),
    ("s=6,six", "grid axis s value 'six'"),
    ("reuse=maybe", "grid axis reuse value 'maybe'"),
    ("k=4 N=1 k=8", "grid axis k repeats"),
    ("reuse=0 reuse=1", "grid axis reuse repeats"),
    ("N=1,7", "no bench prompt for N=7"),
])
def test_bench_refuses_malformed_grid_axes(tmp_path, capsys, grid, names,
                                          monkeypatch):
    # refused before any grid point runs
    monkeypatch.setattr("oblix.cli.client_run_session", None)
    path = _write_config(tmp_path)
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--config", path, "--grid", grid,
                 "--out", str(out)]) == 2
    assert f"error: {names}" in capsys.readouterr().err
    assert not out.exists()


# grid -> schedule steps; the last point of each grid is refused: k beyond
# the 8-step schedule, a cache point of 0, a skip point of 1, a pivot
# outside a class of 2, and 30 x 69 row-steps, over the cap of 2,048
BAD_GRIDS = {"k=2,4,9 N=1": 8, "k=4 r=4,0 N=1": 8, "k=4 s=4,1 N=1": 8,
             "N=1,2 k=4 reuse=0,1": 8, "N=1,30 k=69": 69}


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_bench_refuses_a_bad_grid_point_before_any_session_runs(
        tmp_path, capsys, monkeypatch, grid):
    path = _write_config(tmp_path, accel={"pivot_index": "2"},
                         schedule={"steps": str(BAD_GRIDS[grid])})
    runs = []
    real = oblix.cli.client_run_session
    monkeypatch.setattr(oblix.cli, "client_run_session",
                        lambda *args: runs.append(args) or real(*args))
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--config", path, "--grid", grid,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert runs == [] and not out.exists()


def test_bench_reuse_axis_takes_configparser_boolean_words(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--config", path, "--grid",
                 "k=4 N=1 reuse=ON,no,True,off,1,0,Yes,FALSE",
                 "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["reuse"] for r in records] == [True, False] * 4


# --- dataset -----------------------------------------------------------------------

def test_dataset_full_and_seeded_sampling(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["dataset", "--out", str(out_a)]) == 0
    assert len(out_a.read_text().splitlines()) == 300
    assert main(["dataset", "--out", str(out_b), "--count", "25",
                 "--seed", "3"]) == 0
    first = out_b.read_text()
    assert main(["dataset", "--out", str(out_b), "--count", "25",
                 "--seed", "3"]) == 0
    assert out_b.read_text() == first
    assert len(first.splitlines()) == 25


# --- serve + client ------------------------------------------------------------------

def test_client_over_loopback_matches_generate_bitwise(tmp_path):
    path = _write_config(tmp_path)
    rc = load_run_config(path)
    daemon = Daemon(("127.0.0.1", 0), Server({"toy": rc.cloud_weights}))
    daemon.serve_in_background()
    host, port = daemon.server_address
    try:
        sim_out = tmp_path / "sim.ppm"
        sock_out = tmp_path / "sock.ppm"
        assert main(["generate", "--config", path,
                     "--prompt", "portrait of a young man",
                     "--out", str(sim_out)]) == 0
        assert main(["client", "--config", path,
                     "--prompt", "portrait of a young man",
                     "--host", host, "--port", str(port),
                     "--out", str(sock_out)]) == 0
        assert sim_out.read_bytes() == sock_out.read_bytes()
    finally:
        daemon.shutdown()
        daemon.server_close()


def test_concurrent_clients_over_one_daemon(tmp_path):
    path = _write_config(tmp_path)
    rc = load_run_config(path)
    daemon = Daemon(("127.0.0.1", 0), Server({"toy": rc.cloud_weights}))
    daemon.serve_in_background()
    host, port = daemon.server_address
    # three clients on two cores, N >= 6 each, short switch interval
    prompts = {5: BENCH_PROMPTS[6], 6: BENCH_PROMPTS[30], 7: BENCH_PROMPTS[6]}
    codes = {}
    try:
        def one(seed):
            codes[seed] = main([
                "client", "--config", path, "--prompt", prompts[seed],
                "--seed", str(seed), "--host", host, "--port", str(port),
                "--out", str(tmp_path / f"c{seed}.ppm")])

        threads = [threading.Thread(target=one, args=(s,), daemon=True)
                   for s in prompts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
    finally:
        daemon.shutdown()
        daemon.server_close()
    assert codes == {5: 0, 6: 0, 7: 0}
    for seed, prompt in prompts.items():
        solo = tmp_path / f"solo{seed}.ppm"
        assert main(["generate", "--config", path, "--prompt", prompt,
                     "--seed", str(seed), "--out", str(solo)]) == 0
        assert (tmp_path / f"c{seed}.ppm").read_bytes() == solo.read_bytes()
    assert (tmp_path / "c5.ppm").read_bytes() != (tmp_path / "c7.ppm").read_bytes()


# --- attest ------------------------------------------------------------------------

def test_attest_small_corpus_passes(tmp_path, capsys):
    path = _write_config(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["dataset", "--out", str(corpus), "--count", "6",
                 "--seed", "1"]) == 0
    code = main(["attest", "--config", path, "--corpus", str(corpus),
                 "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failures" in out
    assert "negative control" in out


def test_attest_single_prompt_with_distinguisher(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = main(["attest", "--config", path,
                 "--prompt", "portrait of a young man",
                 "--seeds", "2", "--trials", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "distinguisher N=2" in out
    assert "leaky control" in out


@pytest.mark.parametrize("corpus,argv", [
    ("", []),                                    # empty corpus
    ("\n\n", []),                                # blank lines only
    ('{"prompt": "portrait of a man"}\n', ["--seeds", "0"]),
    ('{"text": "portrait of a man"}\n', []),     # no "prompt"
    ('{"prompt": 7}\n', []),                     # "prompt" not a string
    ('["portrait of a man"]\n', []),             # not an object
    ('{"prompt": "portrait of a man"}\n', ["--trials", "50"]),
])
def test_attest_refuses_bad_input_with_exit_2(tmp_path, capsys, corpus, argv):
    path = _write_config(tmp_path)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus)
    code = main(["attest", "--config", path, "--corpus", str(corpus_path),
                 *argv])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_attest_refuses_a_corpus_line_that_is_not_utf8(tmp_path, capsys):
    path = _write_config(tmp_path)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(b'{"prompt": "portrait of a man"}\n\xff\n')
    code = main(["attest", "--config", path, "--corpus", str(corpus_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{corpus_path}:2:" in err
    assert len(err.splitlines()) == 1


def test_attest_refuses_a_missing_corpus_with_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    missing = str(tmp_path / "missing.jsonl")
    code = main(["attest", "--config", path, "--corpus", missing])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert missing in err


@pytest.mark.parametrize("section,key,target", [
    ("run", "lexicon", "missing.txt"),
    ("run", "templates", "missing.txt"),
    ("model", "cloud_path", "."),            # a directory
])
def test_unreadable_file_named_by_the_config_exits_2(tmp_path, capsys,
                                                     section, key, target):
    target = str(tmp_path / target)
    path = _write_config(tmp_path, **{section: {key: target}})
    code = main(["generate", "--config", path, "--prompt", "a red bicycle"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and target in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["lexicon", "templates"])
def test_non_utf8_file_named_by_the_config_exits_2(tmp_path, capsys, key):
    target = tmp_path / "utf16.txt"
    target.write_bytes(b"\xff\xfe[gender]\n")     # a UTF-16 byte-order mark
    path = _write_config(tmp_path, run={key: str(target)})
    code = main(["generate", "--config", path, "--prompt", "a red bicycle"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(target) in err
    assert len(err.splitlines()) == 1


def test_attest_refuses_a_config_no_server_would_take(tmp_path, capsys):
    # reuse fires at iteration 1 and the pivot lies outside the class of 2,
    # so no request of this config can be made, let alone attested
    path = _write_config(tmp_path, accel={"reuse": "true", "cache_point": "4",
                                          "pivot_index": "5"})
    code = main(["attest", "--config", path,
                 "--prompt", "portrait of a man in a garden"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pivot_index 5 outside 2 candidates\n"
    assert "transcript equality" not in captured.out


# request fields wider than the wire frames them
TOO_WIDE = {
    "seed -1": {"run": {"seed": "-1"}},
    "seed 2^64": {"run": {"seed": str(2**64)}},
    "cache_point 2^32+": {"accel": {"cache_point": "5000000000"}},
}


@pytest.mark.parametrize("command", ["generate", "attest"])
@pytest.mark.parametrize("name", TOO_WIDE)
def test_a_field_wider_than_the_wire_exits_2_naming_it(tmp_path, capsys,
                                                       command, name):
    path = _write_config(tmp_path, **TOO_WIDE[name])
    code = main([command, "--config", path, "--prompt", "portrait of a man"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name.split()[0]} ")
    assert "wire" in err and len(err.splitlines()) == 1


def test_attest_refuses_zero_seeds_for_a_single_prompt(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = main(["attest", "--config", path, "--prompt", "portrait of a man",
                 "--seeds", "0"])
    assert code == 2
    assert "error: --seeds" in capsys.readouterr().err


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for cmd in ("generate", "serve", "client", "bench", "dataset", "attest"):
        assert cmd in parser.format_help()


def test_bench_prompts_have_expected_cardinalities():
    from oblix.oblivious import default_lexicon, detect_attributes, expand_candidates
    lex = default_lexicon()
    for n, prompt in BENCH_PROMPTS.items():
        cset = expand_candidates(prompt, detect_attributes(prompt, lex), lex)
        assert cset.size == n
