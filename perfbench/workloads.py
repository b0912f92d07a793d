"""Workload definitions and their seed-driven input generators.

Everything a run sends to oblix is derived here from the workload name,
the run seed and the client number, so the same seed always yields the
same prompts and latent seeds. The program never sees the seed itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from oblix.oblivious import (
    DEFAULT_TEMPLATES,
    AttributeLexicon,
    default_lexicon,
    fill_template,
    generate_corpus,
    template_classes,
)
from oblix.security import NEUTRAL_FILLS

STEPS = 25
NEVER = STEPS + 1

# Attribute classes that vary for each candidate-set size; the rest get the
# neutral fills the distinguisher uses, so they never enter the class.
VARY_FOR_SIZE = {
    1: (),
    2: ("gender",),
    6: ("gender", "age"),
    30: ("gender", "age", "ethnicity"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "session" or "attest"
    clients: int
    switch_point: int
    cache_point: int
    skip_point: int
    reuse: bool
    refresh_period: int = 5


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "interactive-gated", "session", clients=1, switch_point=10,
            cache_point=4, skip_point=6, reuse=True),
        Workload(
            "bulk-ungated", "session", clients=2, switch_point=STEPS,
            cache_point=NEVER, skip_point=NEVER, reuse=False),
        Workload(
            "attest-corpus", "attest", clients=1, switch_point=10,
            cache_point=4, skip_point=6, reuse=True),
    )
}

# The warm-up session runs one cloud step so that it touches every code
# path of a session without costing a whole one.
WARMUP_SWITCH_POINT = 1


def config_text(w: Workload, port: int) -> str:
    """The INI file `oblix serve` and the load generator both read."""
    return f"""\
[model]
id = toy
cloud_seed = 1001
device_seed = 2002
res = 16
width = 32

[schedule]
steps = {STEPS}

[accel]
switch_point = {w.switch_point}
cache_point = {w.cache_point}
skip_point = {w.skip_point}
reuse = {"true" if w.reuse else "false"}
refresh_period = {w.refresh_period}
pivot_index = 0

[transport]
mode = socket
host = 127.0.0.1
port = {port}

[run]
seed = 0
"""


@dataclass(frozen=True)
class SessionSpec:
    """One session's inputs: what the client asks for, nothing more."""

    prompt: str
    latent_seed: int
    size: int                 # expected candidate-set size
    switch_point: int


def _rng(*parts) -> random.Random:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def random_instance(rng: random.Random, size: int,
                    lex: AttributeLexicon) -> str:
    """A template filled so that exactly the classes for ``size`` vary."""
    vary = VARY_FOR_SIZE[size]
    template = rng.choice(DEFAULT_TEMPLATES)
    assignment = {
        name: rng.choice(lex.class_named(name).values) if name in vary
        else NEUTRAL_FILLS[name]
        for name in template_classes(template, lex)
    }
    return fill_template(template, assignment, lex)


def corpus_prompts() -> list[str]:
    """The 300-prompt corpus: every template crossed with every value."""
    return [rec["prompt"] for rec in generate_corpus(DEFAULT_TEMPLATES,
                                                     default_lexicon())]


def session_stream(w: Workload, seed: int, client: int):
    """Endless, seed-determined session inputs for one client.

    interactive-gated cycles through shuffled blocks of the four sizes, so
    every size gets an equal share; bulk-ungated draws corpus prompts.
    Latent seeds are distinct within a stream.
    """
    rng = _rng(w.name, seed, client)
    lex = default_lexicon()
    prompts = corpus_prompts() if w.name == "bulk-ungated" else None
    seen: set[int] = set()

    def latent_seed() -> int:
        while True:
            s = rng.getrandbits(63)
            if s not in seen:
                seen.add(s)
                return s

    while True:
        if prompts is not None:
            yield SessionSpec(rng.choice(prompts), latent_seed(), 30,
                              w.switch_point)
            continue
        sizes = sorted(VARY_FOR_SIZE)
        rng.shuffle(sizes)
        for size in sizes:
            yield SessionSpec(random_instance(rng, size, lex), latent_seed(),
                              size, w.switch_point)


def warmup_spec(w: Workload, seed: int, client: int) -> SessionSpec:
    rng = _rng(w.name, seed, client, "warm-up")
    size = 30 if w.name == "bulk-ungated" else 1
    return SessionSpec(random_instance(rng, size, default_lexicon()),
                       rng.getrandbits(63), size, WARMUP_SWITCH_POINT)


def attest_seeds(seed: int):
    """Endless latent seeds for the attestation passes over the corpus."""
    rng = _rng("attest-corpus", seed)
    while True:
        yield rng.getrandbits(63)


def attest_order(seed: int, pass_index: int, count: int) -> list[int]:
    order = list(range(count))
    _rng("attest-corpus", seed, "order", pass_index).shuffle(order)
    return order
