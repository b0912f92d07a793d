"""Closed-loop load generation against oblix.

Session workloads talk to `oblix serve` over loopback sockets, one
connection per client thread; the attest workload calls the security
module in-process. A traced run moves the daemon onto a thread of this
process so that its spans can be recorded, and splits its time between an
untraced half and a traced half to measure the tracing overhead.
"""

from __future__ import annotations

import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

import oblix.cli
import oblix.protocol
import oblix.security
from oblix.protocol import Daemon, Server, SocketTransport
from oblix.security import distinguisher_experiment

from checks import (
    SessionRecord,
    check_replay,
    check_session,
    expected_flops,
    fill_record,
    is_pinned,
    load_pinned,
    replay_digests,
    session_cfg,
    ungated_server_flops,
)
from metrics import tail, vm_hwm_mb
from tracing import Tracer, aggregate, layer_table, patched
from workloads import (
    STEPS,
    Workload,
    attest_order,
    attest_seeds,
    config_text,
    corpus_prompts,
    session_stream,
    warmup_spec,
)

SETUP_REPEATS = {"session": 5, "attest": 15}
# An attest op checks one corpus prompt under this many latent seeds, as
# `oblix attest` does by default; ops of about 40 ms keep the tail at a
# percentile a 30 s run can estimate.
SEEDS_PER_PROMPT = 5
DISTINGUISHER_TRIALS = 1000
DISTINGUISHER_SIZES = ((("gender",), 2), (("gender", "age"), 6))
SOCKET_TIMEOUT_S = 60.0
DAEMON_START_TIMEOUT_S = 30.0


class BenchError(Exception):
    """The benchmark could not set itself up; no result is printed."""


# ---------------------------------------------------------------------------
# Daemon lifecycle
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def write_config(w: Workload, port: int, out_dir: str) -> str:
    path = os.path.join(out_dir, f"{w.name}-{os.getpid()}.ini")
    with open(path, "w", encoding="utf-8") as f:
        f.write(config_text(w, port))
    return path


class DaemonProcess:
    """`oblix serve` in a child process on a free loopback port."""

    def __init__(self, src: str, w: Workload, out_dir: str):
        self.src, self.w, self.out_dir = src, w, out_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.config_path = ""

    def start(self) -> float:
        """Spawn the daemon; return seconds until its port accepts."""
        for _ in range(3):   # another process may take the port first
            self.port = _free_port()
            self.config_path = write_config(self.w, self.port, self.out_dir)
            env = dict(os.environ, PYTHONPATH=self.src,
                       OPENBLAS_NUM_THREADS="1")
            log = open(os.path.join(self.out_dir, f"daemon-{os.getpid()}.log"),
                       "ab")
            t0 = time.perf_counter()
            try:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "oblix.cli", "serve", "--config",
                     self.config_path],
                    env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=log)
            finally:
                log.close()
            if self._wait_accepting(t0):
                return time.perf_counter() - t0
            self.stop()
        raise BenchError("oblix serve did not start; see the daemon log in "
                         f"{self.out_dir}")

    def _wait_accepting(self, t0: float) -> bool:
        while time.perf_counter() - t0 < DAEMON_START_TIMEOUT_S:
            if self.proc.poll() is not None:
                return False
            try:
                socket.create_connection(("127.0.0.1", self.port),
                                         timeout=1.0).close()
                return True
            except OSError:
                time.sleep(0.002)
        return False

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


class DaemonThread:
    """The same daemon on a thread of this process, for the traced run."""

    def __init__(self, rc):
        self.daemon = Daemon(("127.0.0.1", 0),
                             Server({rc.model_id: rc.cloud_weights}))
        self.port = self.daemon.server_address[1]
        self.thread = self.daemon.serve_in_background()

    def stop(self) -> None:
        self.daemon.shutdown()
        self.daemon.server_close()
        self.thread.join(timeout=10)


def timed_load_run_config(path: str):
    t0 = time.perf_counter()
    rc = oblix.cli.load_run_config(path)
    return rc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Session clients
# ---------------------------------------------------------------------------


class SessionLoop:
    """Closed loop: each client sends its next session when the last ends."""

    def __init__(self, w: Workload, seed: int, rc, port: int, clients: int):
        self.w, self.seed, self.rc = w, seed, rc
        self.clients = clients
        self.streams = [session_stream(w, seed, c) for c in range(clients)]
        self.transports = [SocketTransport("127.0.0.1", port, SOCKET_TIMEOUT_S)
                           for _ in range(clients)]
        self.records: list[SessionRecord] = []

    def close(self) -> None:
        for t in self.transports:
            t.close()

    def _session(self, client: int, spec, warmup: bool,
                 tracer: Tracer | None) -> SessionRecord:
        cfg = session_cfg(self.rc.session, spec.latent_seed, spec.switch_point)
        rec = SessionRecord(self.w.name, spec.prompt, spec.latent_seed,
                            spec.switch_point, warmup)
        op = tracer.op(f"s{spec.latent_seed}") if tracer else nullcontext()
        with op:
            rec.start = time.perf_counter()
            try:
                result = oblix.protocol.client_run_session(
                    spec.prompt, cfg, self.transports[client],
                    self.rc.device_weights, self.rc.lexicon)
            except Exception as exc:  # a failed session is counted, not fatal
                rec.end = time.perf_counter()
                rec.error = f"{type(exc).__name__}: {exc}"
                return rec
            rec.end = time.perf_counter()
        fill_record(rec, result)
        return rec

    def warm_up(self) -> None:
        """One cheap session per client, checked but never timed."""
        for c in range(self.clients):
            spec = warmup_spec(self.w, self.seed, c)
            self.records.append(self._session(c, spec, True, None))

    def run(self, seconds: float, tracer: Tracer | None = None):
        """Run every client until the deadline; return (records, window)."""
        out: list[SessionRecord] = []
        t0 = time.perf_counter()
        deadline = t0 + seconds

        def client(c: int) -> None:
            while time.perf_counter() < deadline:
                rec = self._session(c, next(self.streams[c]), False, tracer)
                out.append(rec)
                if rec.error is not None:
                    return

        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(timeout=0.5)
        self.records.extend(out)
        window = max((r.end for r in out), default=t0) - t0
        return out, window


def _summary(latencies: list[float], ops: int, window: float) -> dict:
    if not latencies:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "beyond": 0,
                "rate": 0.0, "n": 0}
    value, pct, beyond = tail(latencies)
    return {"p50": statistics.median(latencies), "tail": value,
            "tail_pct": pct, "beyond": beyond,
            "rate": ops / window if window > 0 else 0.0, "n": len(latencies)}


def _check_sessions(seed: int, rc, records) -> tuple[int, list[str]]:
    """Check every session and replay one unpinned session in-process.

    Returns the number of sessions that failed and the reasons."""
    pinned = load_pinned()
    failed: dict[int, list[str]] = {}
    for i, rec in enumerate(records):
        cfg = session_cfg(rc.session, rec.latent_seed, rec.switch_point)
        why = check_session(rec, expected_flops(rc.model, cfg, rec.size or 1),
                            pinned)
        if why:
            failed[i] = why
    unpinned = [i for i, r in enumerate(records) if not r.warmup
                and r.error is None and not is_pinned(r, pinned)]
    if unpinned:
        i = random.Random(seed).choice(unpinned)
        why = check_replay(records[i], replay_digests(rc, records[i]))
        if why:
            failed.setdefault(i, []).extend(why)
    reasons = [f"{records[i].prompt!r} seed={records[i].latent_seed}: {m}"
               for i, msgs in failed.items() for m in msgs]
    return len(failed), reasons


def layer_metrics(agg: dict, ops: int, recs: list[SessionRecord],
                  load_cfg_s: float, overhead: float, ungated_flops: int = 0,
                  trials: int = 0, trial_s: float = 0.0) -> dict:
    """Per-layer metrics from aggregated spans and session records.

    ``ops`` counts the traced sessions or checks; a layer whose spans are
    absent from the workload reports 0.
    """
    def row(name):
        return agg.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                              "flops": 0, "bytes": 0, "count": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(*names):
        return 1e6 * ratio(sum(row(x)["busy_s"] for x in names),
                           sum(row(x)["calls"] for x in names))

    def per_op(name, key="busy_s"):
        return ratio(row(name)[key], ops)

    def gflops(name):
        return ratio(row(name)["flops"], row(name)["busy_s"]) / 1e9

    def per_rec(field):
        return ratio(sum(getattr(r, field) for r in recs), len(recs))

    expand = row("oblivious.expand_candidates")
    server, device = row("denoiser.server_steps"), row("denoiser.device_steps")
    server_steps = sum(r.switch_point for r in recs)
    roundtrip = per_op("protocol.roundtrip")
    handle = per_op("protocol.handle_request")
    return {
        "cli.load_run_config_s": load_cfg_s,
        "oblivious.expand_us": 1e6 * ratio(
            row("oblivious.detect_attributes")["busy_s"] + expand["busy_s"],
            expand["calls"]),
        "oblivious.candidates": ratio(expand["count"], expand["calls"]),
        "protocol.encode_us": per_call_us("protocol.encode_request"),
        "protocol.decode_us": per_call_us("protocol.decode_request",
                                          "protocol.decode_response"),
        "protocol.request_bytes": ratio(row("protocol.encode_request")["bytes"],
                                        row("protocol.encode_request")["calls"]),
        "protocol.response_bytes": ratio(
            row("protocol.encode_response")["bytes"],
            row("protocol.encode_response")["calls"]),
        "protocol.roundtrip_s": roundtrip,
        "protocol.server_handle_s": handle,
        "protocol.wait_s": roundtrip - handle,
        "denoiser.fingerprint_calls": per_op("denoiser.fingerprint", "calls"),
        "denoiser.fingerprint_s": per_op("denoiser.fingerprint"),
        "denoiser.server_step_s": ratio(server["busy_s"], server_steps),
        "denoiser.row_step_us": 1e6 * ratio(server["busy_s"], server["count"]),
        "denoiser.server_gflops": gflops("denoiser.server_steps"),
        "denoiser.embed_prompt_us": per_call_us("denoiser.embed_prompt"),
        "denoiser.device_step_s": ratio(
            device["busy_s"], sum(STEPS - r.switch_point for r in recs)),
        "denoiser.device_gflops": gflops("denoiser.device_steps"),
        "denoiser.decode_latent_us": per_call_us("denoiser.decode_latent"),
        "accel.recompute_steps": per_rec("recompute_steps"),
        "accel.skip_steps": per_rec("skip_steps"),
        "accel.reuse_steps": per_rec("reuse_steps"),
        "accel.flops_saved_ratio": 1.0 - ratio(
            sum(r.server_flops for r in recs), ungated_flops)
        if ungated_flops else 0.0,
        "tensor.matmul_calls": per_op("tensor.matmul", "calls"),
        "tensor.matmul_s": per_op("tensor.matmul"),
        "tensor.matmul_gflops": gflops("tensor.matmul"),
        "tensor.matmul_bytes": per_op("tensor.matmul", "bytes"),
        "tensor.fp16_roundtrip_us": per_call_us("tensor.fp16_roundtrip"),
        "schedule.ddim_calls": per_op("schedule.ddim_step", "calls"),
        "schedule.ddim_us": per_call_us("schedule.ddim_step"),
        "security.replay_us": per_call_us("security.server_view"),
        "security.class_size": ratio(
            row("security.check_indistinguishability")["count"],
            row("security.check_indistinguishability")["calls"]),
        "security.distinguisher_trials_per_s": ratio(trials, trial_s),
        "costmodel.server_flops": per_rec("server_flops"),
        "costmodel.device_flops": per_rec("device_flops"),
        "trace.overhead_ratio": overhead,
    }


def run_sessions(w: Workload, seed: int, seconds: float, trace: bool,
                 src: str, out_dir: str) -> dict:
    clients = min(w.clients, len(os.sched_getaffinity(0)))
    report: list[str] = [f"clients {clients} (closed loop)"]
    daemon = loop = None
    setups = []
    try:
        if trace:
            rc, load_cfg_s = timed_load_run_config(
                write_config(w, 0, out_dir))
            daemon = DaemonThread(rc)
        else:
            for _ in range(SETUP_REPEATS["session"]):
                if daemon is not None:
                    daemon.stop()
                daemon = DaemonProcess(src, w, out_dir)
                accept_s = daemon.start()
                rc, load_cfg_s = timed_load_run_config(daemon.config_path)
                setups.append(accept_s + load_cfg_s)
        loop = SessionLoop(w, seed, rc, daemon.port, clients)
        loop.warm_up()
        if trace:
            plain, plain_window = loop.run(seconds / 2)
            tracer = Tracer()
            with patched(tracer):
                timed, window = loop.run(seconds / 2, tracer)
        else:
            timed, window = loop.run(seconds)
            client_rss = vm_hwm_mb()
            server_rss = daemon.peak_rss_mb()
    finally:
        if loop is not None:
            loop.close()
        if daemon is not None:
            daemon.stop()

    failed, reasons = _check_sessions(seed, rc, loop.records)
    ok = [r for r in timed if r.error is None]
    s = _summary([r.latency for r in ok], len(ok), window)
    result = {"attempted": len(loop.records), "failed": failed,
              "failures": reasons, "report": report}
    report.append(f"sessions timed {s['n']} in {window:.3f} s; tail is "
                  f"p{s['tail_pct']:.1f} with {s['beyond']} samples beyond")
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_p50_s": s["p50"],
            "op_tail_s": s["tail"],
            "ops_per_s": s["rate"],
            "worker_peak_rss_mb": server_rss,
            "client_peak_rss_mb": client_rss,
        }
        return result

    plain_ok = [r for r in plain if r.error is None]
    base = _summary([r.latency for r in plain_ok], len(plain_ok), plain_window)
    overhead = s["p50"] / base["p50"] if base["p50"] else 0.0
    agg = aggregate(tracer.spans, {f"s{r.latent_seed}" for r in ok})
    op_seconds = sum(r.latency for r in ok)
    ungated = sum(ungated_server_flops(rc.model, rc.session.accel, r.size)
                  for r in ok)
    result["metrics"] = layer_metrics(agg, len(ok), ok, load_cfg_s, overhead,
                                      ungated_flops=ungated)
    result["tracer"] = tracer
    report.append(f"untraced half: {base['n']} sessions, p50 "
                  f"{base['p50']:.4f} s; traced half: {s['n']} sessions, "
                  f"p50 {s['p50']:.4f} s; tracing overhead x{overhead:.3f}")
    report += layer_table(agg, op_seconds)
    return result


# ---------------------------------------------------------------------------
# Attestation loop
# ---------------------------------------------------------------------------


class AttestLoop:
    """A run starts with the distinguisher; each pass over the corpus then
    starts with the negative control and attests every prompt under
    fresh latent seeds."""

    def __init__(self, seed: int, rc, prompts: list[str]):
        self.seed, self.rc, self.prompts = seed, rc, prompts
        self.seeds = attest_seeds(seed)
        self.passes = 0
        self.attempted = 0
        self.fails: list[str] = []
        self.accuracy: dict[int, float] = {}
        self.pass_seeds: list[int] = []

    def _start_pass(self) -> list[int]:
        self.pass_seeds = [next(self.seeds) for _ in range(SEEDS_PER_PROMPT)]
        order = attest_order(self.seed, self.passes, len(self.prompts))
        self.passes += 1
        control = oblix.security.check_indistinguishability(
            self.prompts[order[0]], self.rc.lexicon, self.pass_seeds[0],
            self.rc.session, order_real_first=True)
        self.attempted += 1
        if control.class_size < 2 or control.passed:
            self.fails.append("negative control: real-first ordering passed")
        return order[::-1]

    def _distinguish(self) -> tuple[int, float]:
        t0 = time.perf_counter()
        for vary, size in DISTINGUISHER_SIZES:
            verdict = distinguisher_experiment(
                self.rc.lexicon, self.rc.session, DISTINGUISHER_TRIALS,
                adversary="hash", templates=self.rc.templates, vary=vary)
            self.attempted += 1
            first = self.accuracy.setdefault(size, verdict.adversary_accuracy)
            if not verdict.passed or verdict.class_size != size:
                self.fails.append(f"distinguisher N={size}: "
                                  f"{verdict.describe()}")
            elif verdict.adversary_accuracy != first:
                self.fails.append(f"distinguisher N={size} is not repeatable")
        return DISTINGUISHER_TRIALS * len(DISTINGUISHER_SIZES), \
            time.perf_counter() - t0

    def run(self, seconds: float, tracer: Tracer | None = None):
        """Returns ([(op id, latency)], trials, trial seconds).

        An op attests one prompt under the pass's latent seeds."""
        ops = []
        deadline = time.perf_counter() + seconds
        queue = self._start_pass()
        trials, trial_s = self._distinguish()
        lex, cfg = self.rc.lexicon, self.rc.session
        while time.perf_counter() < deadline:
            if not queue:
                queue = self._start_pass()
            idx = queue.pop()
            op_id = f"a{self.passes}:{idx}"
            with tracer.op(op_id) if tracer else nullcontext():
                c0 = time.perf_counter()
                verdicts = [oblix.security.check_indistinguishability(
                    self.prompts[idx], lex, s, cfg) for s in self.pass_seeds]
                c1 = time.perf_counter()
            self.attempted += len(verdicts)
            self.fails += [f"{self.prompts[idx]!r} seed={s}: {v.describe()}"
                           for s, v in zip(self.pass_seeds, verdicts)
                           if not v.passed]
            ops.append((op_id, c1 - c0))
        return ops, trials, trial_s


def run_attest(w: Workload, seed: int, seconds: float, trace: bool,
               src: str, out_dir: str) -> dict:
    path = write_config(w, 0, out_dir)
    setups = []
    for _ in range(SETUP_REPEATS["attest"]):
        t0 = time.perf_counter()
        rc = oblix.cli.load_run_config(path)
        t1 = time.perf_counter()
        prompts = corpus_prompts()
        setups.append(time.perf_counter() - t0)
    load_cfg_s = t1 - t0
    loop = AttestLoop(seed, rc, prompts)
    report: list[str] = ["in-process, one thread"]
    if trace:
        plain, _, _ = loop.run(seconds / 2)
        tracer = Tracer()
        with patched(tracer):
            ops, trials, trial_s = loop.run(seconds / 2, tracer)
    else:
        ops, trials, trial_s = loop.run(seconds)
    rss = vm_hwm_mb()
    latencies = [op[1] for op in ops]
    # ops_per_s counts (prompt, seed) checks: SEEDS_PER_PROMPT per op
    s = _summary(latencies, SEEDS_PER_PROMPT * len(ops), sum(latencies))
    result = {"attempted": loop.attempted, "failed": len(loop.fails),
              "failures": loop.fails, "report": report}
    report.append(f"prompts attested {s['n']} ({SEEDS_PER_PROMPT} seeds "
                  f"each) over {loop.passes} corpus passes; tail is "
                  f"p{s['tail_pct']:.1f} with {s['beyond']} samples beyond; "
                  f"distinguisher {trials / trial_s:.1f} trials/s")
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_p50_s": s["p50"],
            "op_tail_s": s["tail"],
            "ops_per_s": s["rate"],
            "worker_peak_rss_mb": rss,
            "client_peak_rss_mb": rss,
        }
        return result
    base_p50 = statistics.median([op[1] for op in plain]) if plain else 0.0
    overhead = s["p50"] / base_p50 if base_p50 else 0.0
    agg = aggregate(tracer.spans, {op[0] for op in ops})
    result["metrics"] = layer_metrics(agg, len(ops), [], load_cfg_s,
                                      overhead, trials=trials, trial_s=trial_s)
    result["tracer"] = tracer
    report.append(f"untraced half p50 {base_p50 * 1e3:.3f} ms; traced half "
                  f"p50 {s['p50'] * 1e3:.3f} ms; tracing overhead "
                  f"x{overhead:.3f}")
    report += layer_table(agg, sum(latencies))
    return result
