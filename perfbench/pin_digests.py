#!/usr/bin/env python3
"""Regenerate perfbench/digests.json: the pinned session outputs.

For each session workload and each pinned seed, runs the warm-up session
and the first sessions of every client's stream in-process over
SimulatedTransport and records the SHA-256 of the image and of the
returned latents. Run it only when the program's outputs change on
purpose (they never should; see the golden SHA-256 in the test suite):

    python3 perfbench/pin_digests.py
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import itertools  # noqa: E402
import json  # noqa: E402

from oblix.cli import load_run_config  # noqa: E402

from checks import DIGESTS_PATH, SessionRecord, replay_digests, session_key  # noqa: E402
from loadgen import write_config  # noqa: E402
from workloads import WORKLOADS, session_stream, warmup_spec  # noqa: E402

PINNED_SEEDS = (0, 1, 2)
# Sessions pinned per client and seed: about what a 30-second run reaches.
PINNED_PER_CLIENT = {"interactive-gated": 32, "bulk-ungated": 4}


def main() -> int:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    sessions = {}
    for name, count in PINNED_PER_CLIENT.items():
        w = WORKLOADS[name]
        rc = load_run_config(write_config(w, 0, out_dir))
        for seed in PINNED_SEEDS:
            for client in range(w.clients):
                specs = [warmup_spec(w, seed, client)] + list(
                    itertools.islice(session_stream(w, seed, client), count))
                for spec in specs:
                    rec = SessionRecord(name, spec.prompt, spec.latent_seed,
                                        spec.switch_point, False)
                    image, latents = replay_digests(rc, rec)
                    key = session_key(name, spec.prompt, spec.latent_seed,
                                      spec.switch_point)
                    sessions[key] = {"image": image, "latents": latents}
            print(f"{name} seed {seed}: {len(sessions)} sessions pinned",
                  flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as f:
        json.dump({"seeds": list(PINNED_SEEDS),
                   "per_client": PINNED_PER_CLIENT,
                   "sessions": sessions}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
