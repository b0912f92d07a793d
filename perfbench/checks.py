"""Output checks: exact FLOPs, pinned digests, in-process replay.

Each check returns a list of failure messages; an empty list means the
session's outputs are what this commit's code must produce.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

from oblix.accel import AccelConfig
from oblix.costmodel import expected_run_flops
from oblix.protocol import Server, SessionConfig, SimulatedTransport, client_run_session
from oblix.schedule import StepIndexMap, map_timestep

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


@dataclass
class SessionRecord:
    """What the load generator keeps of one finished session."""

    workload: str
    prompt: str
    latent_seed: int
    switch_point: int
    warmup: bool
    start: float = 0.0
    end: float = 0.0
    size: int = 0
    server_flops: int = 0
    device_flops: int = 0
    image_sha: str = ""
    latents_sha: str = ""
    recompute_steps: int = 0
    skip_steps: int = 0
    reuse_steps: int = 0
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.start


def session_cfg(base: SessionConfig, latent_seed: int,
                switch_point: int) -> SessionConfig:
    cfg = replace(base, seed=latent_seed)
    if switch_point != base.accel.switch_point:
        cfg = replace(cfg, accel=replace(base.accel, switch_point=switch_point))
    return cfg


def session_key(workload: str, prompt: str, latent_seed: int,
                switch_point: int) -> str:
    raw = json.dumps([workload, prompt, latent_seed, switch_point])
    return hashlib.sha256(raw.encode()).hexdigest()[:32]


def output_digests(result) -> tuple[str, str]:
    """SHA-256 of the image and of the latents the server returned."""
    image = hashlib.sha256(result.image.tobytes()).hexdigest()
    latents = hashlib.sha256(result.response.latents.tobytes()).hexdigest() \
        if result.response is not None else ""
    return image, latents


def fill_record(rec: SessionRecord, result) -> None:
    rec.size = result.candidates.size
    rec.server_flops = result.server_flops
    rec.device_flops = result.device_counter.total
    rec.image_sha, rec.latents_sha = output_digests(result)
    steps = result.server_steps
    rec.recompute_steps = sum(s.recompute for s in steps)
    rec.skip_steps = sum(s.skip for s in steps)
    rec.reuse_steps = sum(s.reuse for s in steps)


def expected_flops(model_cfg, cfg: SessionConfig, size: int) -> tuple[int, int]:
    """Closed-form (server, device) FLOPs for one session."""
    k = cfg.accel.switch_point
    server = expected_run_flops(model_cfg, size, cfg.accel, 1, k)
    dev = cfg.device_schedule().steps
    resume, _ = map_timestep(k, StepIndexMap(cfg.cloud_schedule.steps, dev,
                                             cfg.dt_shift))
    device = expected_run_flops(model_cfg, 1, None, resume + 1, dev)
    return server, device


def ungated_server_flops(model_cfg, accel: AccelConfig, size: int) -> int:
    """Server FLOPs the same session would count with no gates at all."""
    return expected_run_flops(model_cfg, size, None, 1, accel.switch_point)


def check_session(rec: SessionRecord, expected: tuple[int, int],
                  pinned: dict) -> list[str]:
    if rec.error is not None:
        return [f"session raised: {rec.error}"]
    fails = []
    if (rec.server_flops, rec.device_flops) != expected:
        fails.append(f"counted FLOPs (server, device) "
                     f"{(rec.server_flops, rec.device_flops)} != closed form "
                     f"{expected}")
    key = session_key(rec.workload, rec.prompt, rec.latent_seed,
                      rec.switch_point)
    if key in pinned:
        want = pinned[key]
        if rec.image_sha != want["image"]:
            fails.append(f"image SHA-256 {rec.image_sha[:16]} != pinned "
                         f"{want['image'][:16]}")
        if rec.latents_sha != want["latents"]:
            fails.append(f"latents SHA-256 {rec.latents_sha[:16]} != pinned "
                         f"{want['latents'][:16]}")
    return fails


def is_pinned(rec: SessionRecord, pinned: dict) -> bool:
    return session_key(rec.workload, rec.prompt, rec.latent_seed,
                       rec.switch_point) in pinned


def load_pinned(path: str = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["sessions"]


def replay_digests(rc, rec: SessionRecord) -> tuple[str, str]:
    """Run the session again in-process over SimulatedTransport."""
    cfg = session_cfg(rc.session, rec.latent_seed, rec.switch_point)
    transport = SimulatedTransport(Server({rc.model_id: rc.cloud_weights}))
    result = client_run_session(rec.prompt, cfg, transport, rc.device_weights,
                                rc.lexicon)
    return output_digests(result)


def check_replay(rec: SessionRecord, replayed: tuple[str, str]) -> list[str]:
    if (rec.image_sha, rec.latents_sha) != replayed:
        return ["in-process replay over SimulatedTransport is not bitwise "
                "equal to the daemon session"]
    return []
