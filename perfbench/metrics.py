"""Metric names and units, summary statistics and run provenance.

End-to-end metrics are measured with tracing off and exist on every
workload; an "op" is the unit of work a workload's closed loop repeats:
a prompt-to-image session on interactive-gated and bulk-ungated, one
corpus prompt attested under five latent seeds on attest-corpus.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess

# name -> (unit, name used for it in the report, per workload kind)
END_TO_END = {
    "setup_s": ("s", {"session": "setup_s", "attest": "setup_s"}),
    "op_p50_s": ("s", {"session": "session_p50_s",
                       "attest": "attest_prompt_p50_s"}),
    "op_tail_s": ("s", {"session": "session_tail_s",
                        "attest": "attest_prompt_tail_s"}),
    "ops_per_s": ("1/s", {"session": "sessions_per_s",
                          "attest": "attest_checks_per_s"}),
    "worker_peak_rss_mb": ("MB", {"session": "server_peak_rss_mb",
                                  "attest": "attest_peak_rss_mb"}),
    "client_peak_rss_mb": ("MB", {"session": "client_peak_rss_mb",
                                  "attest": "client_peak_rss_mb"}),
}

PER_LAYER = {
    "cli.load_run_config_s": "s",
    "oblivious.expand_us": "us",
    "oblivious.candidates": "count",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.request_bytes": "B",
    "protocol.response_bytes": "B",
    "protocol.roundtrip_s": "s",
    "protocol.server_handle_s": "s",
    "protocol.wait_s": "s",
    "denoiser.fingerprint_calls": "count",
    "denoiser.fingerprint_s": "s",
    "denoiser.server_step_s": "s",
    "denoiser.row_step_us": "us",
    "denoiser.server_gflops": "GFLOP/s",
    "denoiser.embed_prompt_us": "us",
    "denoiser.device_step_s": "s",
    "denoiser.device_gflops": "GFLOP/s",
    "denoiser.decode_latent_us": "us",
    "accel.recompute_steps": "count",
    "accel.skip_steps": "count",
    "accel.reuse_steps": "count",
    "accel.flops_saved_ratio": "ratio",
    "tensor.matmul_calls": "count",
    "tensor.matmul_s": "s",
    "tensor.matmul_gflops": "GFLOP/s",
    "tensor.matmul_bytes": "B",
    "tensor.fp16_roundtrip_us": "us",
    "schedule.ddim_calls": "count",
    "schedule.ddim_us": "us",
    "security.replay_us": "us",
    "security.class_size": "count",
    "security.distinguisher_trials_per_s": "1/s",
    "costmodel.server_flops": "FLOP",
    "costmodel.device_flops": "FLOP",
    "trace.overhead_ratio": "ratio",
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the tail latency.

    The tail is the highest order statistic with at least ten samples
    above it; below twenty samples that would sit under the median, so
    the median is reported instead, with its own percentile and count.
    """
    xs = sorted(values)
    n = len(xs)
    below = n - 10
    if below >= math.ceil(n / 2) and below >= 1:
        return xs[below - 1], 100.0 * below / n, n - below
    return statistics.median(xs), 50.0, n // 2


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def _count_lines(root: str, sub: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, sub)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(root: str) -> dict:
    """Where and on what a result was measured; informational only."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "src_lines": _count_lines(root, "src"),
        "scripts_lines": _count_lines(root, "scripts"),
    }
