"""Transcript-equality attestation and the empirical distinguisher.

The serving scheme is sound exactly when the byte stream a server observes
is the same for every member of a prompt's candidate equivalence class.
`check_indistinguishability` verifies that property literally: it expands
the class, replays the client transform for every member, and compares
request transcripts bit for bit.  That is strictly stronger than the
statistical bound the distinguisher experiment demonstrates (a
transcript-only adversary cannot beat random guessing at 1/N by more than
sampling noise).

By design the transcript does reveal the equivalence class itself (the
candidate prompts, hence the attribute value spaces and the non-sensitive
tokens); what it hides is which member is real.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace

from .errors import ConfigError
from .oblivious import (
    AttributeLexicon,
    detect_attributes,
    expand_candidates,
    fill_template,
    template_classes,
)
from .protocol import SessionConfig, build_request, encode_frame


@dataclass(frozen=True)
class Transcript:
    """Bytes observable at the server boundary for one session."""

    entries: tuple[tuple[str, bytes], ...]

    def sent_bytes(self) -> bytes:
        return b"".join(b for d, b in self.entries if d == "sent")


@dataclass
class ObliviousnessVerdict:
    class_size: int
    passed: bool
    first_diff_offset: int | None = None
    adversary_accuracy: float | None = None
    trials: int = 0

    def describe(self) -> str:
        if self.adversary_accuracy is not None:
            gap = abs(self.adversary_accuracy - 1.0 / self.class_size)
            return (f"N={self.class_size} trials={self.trials} "
                    f"accuracy={self.adversary_accuracy:.4f} "
                    f"|acc-1/N|={gap:.4f} "
                    f"{'PASS' if self.passed else 'FAIL'}")
        loc = ("" if self.first_diff_offset is None
               else f" first differing byte at offset {self.first_diff_offset}")
        return (f"N={self.class_size} transcript equality "
                f"{'PASS' if self.passed else 'FAIL'}{loc}")


def server_view(prompt: str, seed: int, cfg: SessionConfig,
                lex: AttributeLexicon,
                order_real_first: bool = False) -> Transcript:
    """Client pipeline up to and including request serialization."""
    cfg = _with_seed(cfg, seed)
    req, _ = build_request(prompt, cfg, lex, order_real_first=order_real_first)
    return Transcript((("sent", encode_frame(req)),))


def _with_seed(cfg: SessionConfig, seed: int) -> SessionConfig:
    return cfg if cfg.seed == seed else replace(cfg, seed=seed)


def _first_diff(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def check_indistinguishability(prompt: str, lex: AttributeLexicon, seed: int,
                               cfg: SessionConfig,
                               order_real_first: bool = False) -> ObliviousnessVerdict:
    """Replay every class member and require bitwise-equal transcripts.

    A prompt with no detections yields a vacuous pass with class size 1.
    ``order_real_first`` threads the broken debug ordering through every
    replay, which must make the check fail (the negative control).
    """
    cfg = _with_seed(cfg, seed)
    cset = expand_candidates(prompt, detect_attributes(prompt, lex), lex)
    reference: bytes | None = None
    for member in cset.prompts:
        view = server_view(member, seed, cfg, lex,
                           order_real_first=order_real_first).sent_bytes()
        if reference is None:
            reference = view
        elif view != reference:
            return ObliviousnessVerdict(
                cset.size, False, first_diff_offset=_first_diff(reference, view))
    return ObliviousnessVerdict(cset.size, True)


# ---------------------------------------------------------------------------
# Distinguisher experiment
# ---------------------------------------------------------------------------


def hash_bucket_adversary(transcript: bytes, class_size: int) -> int:
    """Deterministic transcript-only guesser: hash the bytes into a bucket."""
    digest = hashlib.sha256(transcript).digest()
    return int.from_bytes(digest[:8], "little") % class_size


def byte_sum_adversary(transcript: bytes, class_size: int) -> int:
    return sum(transcript) % class_size


ADVERSARIES = {
    "hash": hash_bucket_adversary,
    "bytesum": byte_sum_adversary,
}

LEAKY_ADVERSARY = "leaky"


# placeholder fills that carry no attribute meaning, used to keep a class
# OUT of a trial prompt so the equivalence class has a chosen size
NEUTRAL_FILLS = {"age": "tall", "gender": "person", "ethnicity": "local"}


def distinguisher_experiment(lex: AttributeLexicon, cfg: SessionConfig,
                             trials: int, adversary="hash",
                             templates: tuple[str, ...] | None = None,
                             experiment_seed: int = 7,
                             vary: tuple[str, ...] | None = None) -> ObliviousnessVerdict:
    """Estimate a transcript-only adversary's guessing accuracy.

    Each trial instantiates a random template, picks the real prompt
    uniformly inside its equivalence class, produces the request
    transcript, and lets the adversary guess the real index.  The verdict
    passes when the empirical accuracy sits within three binomial standard
    deviations of the random-guessing rate.  ``vary`` restricts which
    attribute classes actually vary (the rest get neutral fills), pinning
    the class size.  The ``leaky`` adversary is handed the real index out
    of band and must score 1.0; it proves the harness can detect a leak.
    """
    if trials < 100:
        raise ConfigError(f"need at least 100 trials, got {trials}")
    if templates is None:
        from .oblivious import DEFAULT_TEMPLATES
        templates = DEFAULT_TEMPLATES

    rng = random.Random(experiment_seed)
    leaky = adversary == LEAKY_ADVERSARY
    guess_fn = None if leaky else (
        ADVERSARIES[adversary] if isinstance(adversary, str) else adversary)

    hits = 0
    inverse_sizes: list[float] = []
    for _ in range(trials):
        prompt = _random_instance(rng, templates, lex, vary)
        cset = expand_candidates(prompt, detect_attributes(prompt, lex), lex)
        real = rng.randrange(cset.size)
        view = server_view(cset.prompts[real], rng.getrandbits(63), cfg,
                           lex).sent_bytes()
        guess = real if leaky else guess_fn(view, cset.size)
        hits += guess == real
        inverse_sizes.append(1.0 / cset.size)

    accuracy = hits / trials
    expected = sum(inverse_sizes) / trials
    sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / trials)
    passed = accuracy == 1.0 if leaky \
        else abs(accuracy - expected) <= 3.0 * sigma
    return ObliviousnessVerdict(
        class_size=round(1.0 / expected),
        passed=passed,
        adversary_accuracy=accuracy,
        trials=trials,
    )


def _random_instance(rng: random.Random, templates, lex: AttributeLexicon,
                     vary: tuple[str, ...] | None) -> str:
    """Instantiate a random template; classes outside ``vary`` get fills
    that no lexicon synonym matches, so they never enter the class."""
    template = rng.choice(templates)
    assignment = {name: rng.choice(lex.class_named(name).values)
                  if vary is None or name in vary else NEUTRAL_FILLS[name]
                  for name in template_classes(template, lex)}
    return fill_template(template, assignment, lex)
