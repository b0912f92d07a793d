import struct

import pytest

import oblix.protocol
from oblix.accel import AccelConfig, never
from oblix.errors import ConfigError
from oblix.oblivious import (
    CandidateSet,
    DEFAULT_TEMPLATES,
    default_lexicon,
    fill_template,
)
from oblix.protocol import ScheduleParams, SessionConfig
from oblix.security import (
    LEAKY_ADVERSARY,
    byte_sum_adversary,
    check_indistinguishability,
    distinguisher_experiment,
    hash_bucket_adversary,
    server_view,
)

LEX = default_lexicon()


def _cfg(seed=5, k=4, steps=8):
    accel = AccelConfig(switch_point=k, cache_point=never(steps),
                        skip_point=never(steps))
    return SessionConfig(model_id="toy", seed=seed, accel=accel,
                         cloud_schedule=ScheduleParams(steps))


# --- server view ---------------------------------------------------------------

def test_view_is_deterministic():
    cfg = _cfg()
    a = server_view("portrait of a young man", 9, cfg, LEX)
    b = server_view("portrait of a young man", 9, cfg, LEX)
    assert a == b


def test_views_with_different_seeds_differ_only_in_seed_field():
    cfg = _cfg()
    seed_a, seed_b = 0x1122334455667788, 0x8877665544332211
    a = server_view("portrait of a young man", seed_a, cfg, LEX).sent_bytes()
    b = server_view("portrait of a young man", seed_b, cfg, LEX).sent_bytes()
    assert len(a) == len(b)
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    start = a.index(struct.pack("<Q", seed_a))
    assert diffs
    assert all(start <= i < start + 8 for i in diffs)
    assert b[start:start + 8] == struct.pack("<Q", seed_b)


def test_views_identical_across_class_members():
    cfg = _cfg()
    a = server_view("photo of a young male", 7, cfg, LEX)
    b = server_view("photo of a old female", 7, cfg, LEX)
    assert a.sent_bytes() == b.sent_bytes()


# --- transcript-equality attestation -----------------------------------------------

def test_template_instantiation_passes_with_full_class():
    prompt = fill_template(DEFAULT_TEMPLATES[7], {
        "age": "middle-aged", "ethnicity": "asian", "gender": "female"}, LEX)
    verdict = check_indistinguishability(prompt, LEX, 3, _cfg())
    assert verdict.passed
    assert verdict.class_size == 30
    assert verdict.first_diff_offset is None


def test_negative_control_fails_with_concrete_offset():
    prompt = "portrait of a young man"
    verdict = check_indistinguishability(prompt, LEX, 3, _cfg(),
                                         order_real_first=True)
    assert not verdict.passed
    assert verdict.class_size == 6
    assert isinstance(verdict.first_diff_offset, int)
    assert "FAIL" in verdict.describe()


def test_each_member_is_compared_through_its_own_expansion(monkeypatch):
    # reorder the candidates of one member's replay only: the check must
    # see it, so no replay may reuse another member's expansion
    expand = oblix.protocol.expand_candidates
    odd_member = "portrait of a old female"

    def reorder_for_one_member(prompt, detections, lex):
        cset = expand(prompt, detections, lex)
        if prompt != odd_member:
            return cset
        prompts = cset.prompts[::-1]
        return CandidateSet(prompts, prompts.index(cset.real_prompt))

    monkeypatch.setattr(oblix.protocol, "expand_candidates",
                        reorder_for_one_member)
    verdict = check_indistinguishability("portrait of a young man", LEX, 3,
                                         _cfg())
    assert not verdict.passed
    assert verdict.class_size == 6
    assert isinstance(verdict.first_diff_offset, int)
    assert check_indistinguishability("portrait of a young african man", LEX,
                                      3, _cfg()).passed


def test_no_detection_prompt_is_vacuous_pass():
    verdict = check_indistinguishability("a red bicycle", LEX, 3, _cfg())
    assert verdict.passed
    assert verdict.class_size == 1


def test_attestation_is_exact_across_seeds_and_configs():
    for seed in (0, 1, 2**63 - 1):
        for k in (1, 4, 8):
            verdict = check_indistinguishability(
                "portrait of a young man", LEX, seed, _cfg(seed=seed, k=k))
            assert verdict.passed


# --- distinguisher ------------------------------------------------------------------

def test_adversaries_are_deterministic_functions_of_bytes():
    blob = b"some transcript bytes"
    assert hash_bucket_adversary(blob, 6) == hash_bucket_adversary(blob, 6)
    assert 0 <= hash_bucket_adversary(blob, 6) < 6
    assert 0 <= byte_sum_adversary(blob, 6) < 6


def test_distinguisher_requires_enough_trials():
    with pytest.raises(ConfigError):
        distinguisher_experiment(LEX, _cfg(), 99)


@pytest.mark.parametrize("vary,n", [(("gender",), 2), (("gender", "age"), 6)])
def test_distinguisher_accuracy_is_near_uniform(vary, n):
    verdict = distinguisher_experiment(LEX, _cfg(), 1000, adversary="hash",
                                       vary=vary)
    assert verdict.class_size == n
    assert verdict.trials == 1000
    assert verdict.passed
    assert abs(verdict.adversary_accuracy - 1.0 / n) <= \
        3 * ((1.0 / n) * (1 - 1.0 / n) / 1000) ** 0.5


def test_distinguisher_second_strategy_also_bounded():
    verdict = distinguisher_experiment(LEX, _cfg(), 600, adversary="bytesum",
                                       vary=("gender",))
    assert verdict.passed


def test_leaky_adversary_scores_perfectly():
    verdict = distinguisher_experiment(LEX, _cfg(), 200,
                                       adversary=LEAKY_ADVERSARY,
                                       vary=("gender",))
    assert verdict.adversary_accuracy == 1.0
    assert verdict.passed
