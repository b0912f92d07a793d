import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oblix.errors import ConfigError, InputError, ProtocolError
from oblix.oblivious import (
    AttributeLexicon,
    CandidateSet,
    DEFAULT_TEMPLATES,
    Detection,
    default_lexicon,
    detect_attributes,
    expand_candidates,
    extract_latent,
    fill_template,
    generate_corpus,
    load_templates,
    template_classes,
)
from oblix.tensor import Rng

from bitwise import same_bits

LEX = default_lexicon()
DATA = Path(__file__).resolve().parents[1] / "data"


def _detected(prompt):
    return [(d.attr_class, d.value) for d in detect_attributes(prompt, LEX)]


# --- detection -----------------------------------------------------------------

def test_detects_example_prompt():
    assert _detected("portrait of young African woman") == [
        ("age", "young"), ("ethnicity", "african"), ("gender", "female")]


def test_no_sensitive_tokens():
    assert _detected("a red bicycle") == []


def test_first_occurrence_per_class_wins():
    assert _detected("old man and young man") == [
        ("age", "old"), ("gender", "male")]


def test_detection_is_case_insensitive():
    assert _detected("Portrait Of A YOUNG Lady") == [
        ("age", "young"), ("gender", "female")]


def test_detection_handles_punctuation():
    assert _detected("a young, smiling woman.") == [
        ("age", "young"), ("gender", "female")]


def test_multi_token_synonym_longest_match():
    dets = detect_attributes("a middle aged man", LEX)
    assert [(d.attr_class, d.value, d.start, d.end) for d in dets] == [
        ("age", "middle-aged", 1, 3), ("gender", "male", 3, 4)]


def test_synonym_normalization():
    assert _detected("an elderly gentleman") == [
        ("age", "old"), ("gender", "male")]


# --- expansion -----------------------------------------------------------------

def _expand(prompt):
    return expand_candidates(prompt, detect_attributes(prompt, LEX), LEX)


def test_cardinality_gender_only():
    assert _expand("portrait of a man").size == 2


def test_cardinality_gender_age():
    assert _expand("portrait of a young man").size == 6


def test_cardinality_all_three():
    assert _expand("portrait of a young african man").size == 30


def test_candidate_order_is_value_lexicographic():
    cset = _expand("photo of a young woman")
    # class order comes from the lexicon (gender before age), value order
    # from each class's value list
    combos = list(itertools.product(("male", "female"),
                                    ("young", "middle-aged", "old")))
    expected = [f"photo of a {age} {gender}" for gender, age in combos]
    assert list(cset.prompts) == expected


def test_real_prompt_is_member_at_real_index():
    cset = _expand("photo of a young woman")
    assert cset.prompts[cset.real_index] == "photo of a young female"
    assert cset.prompts.count("photo of a young female") == 1


def test_expansion_preserves_untouched_tokens_and_punctuation():
    cset = _expand("B&W photo of a young woman, smiling warmly.")
    for p in cset.prompts:
        assert p.startswith("B&W photo of a ")
        assert p.endswith(", smiling warmly.")
        body = p[len("B&W photo of a "):-len(", smiling warmly.")]
        age, gender = body.split()
        assert age in ("young", "middle-aged", "old")
        assert gender in ("male", "female")


def test_expansion_comma_stays_glued_to_substituted_token():
    cset = _expand("portrait of a woman, smiling")
    assert "portrait of a female, smiling" in cset.prompts
    assert "portrait of a male, smiling" in cset.prompts


def test_equivalence_class_stability():
    cset = _expand("portrait of young African woman")
    assert cset.size == 30
    for member in cset.prompts:
        again = _expand(member)
        assert again.prompts == cset.prompts


def test_no_detection_expansion_is_identity():
    cset = _expand("a red bicycle")
    assert cset.prompts == ("a red bicycle",)
    assert cset.real_index == 0


def test_whitespace_is_normalized_before_expansion():
    a = _expand("  portrait   of a  man ")
    b = _expand("portrait of a man")
    assert a.prompts == b.prompts


@pytest.mark.parametrize("span", [(2, 2), (4, 5), (3, 5), (-1, 1)])
def test_expansion_refuses_an_empty_or_outside_span(span):
    # a caller-built detection must replace tokens of the prompt; an empty
    # span would insert its value in front of a token instead
    prompt = "a young african man"
    det = Detection(*span, "age", "young")
    with pytest.raises(InputError, match=re.escape(f"span {span}")):
        expand_candidates(prompt, [det], LEX)


# caller-built detections that name a class or a value the lexicon lacks,
# or spans that overlap, with the words the refusal must name
BAD_DETECTIONS = {
    "unknown class": ([Detection(0, 1, "zzz", "young")], "class 'zzz'"),
    "value outside its class": ([Detection(1, 2, "age", "ancient")],
                                "value 'ancient' is not in class 'age'"),
    "overlapping spans": ([Detection(1, 3, "age", "young"),
                           Detection(2, 3, "ethnicity", "african")],
                          "spans (1, 3) and (2, 3) overlap"),
}


@pytest.mark.parametrize("detections, named", BAD_DETECTIONS.values(),
                         ids=BAD_DETECTIONS.keys())
def test_expansion_refuses_a_detection_the_lexicon_cannot_expand(
        detections, named):
    with pytest.raises(InputError, match=re.escape(named)):
        expand_candidates("a young african man", detections, LEX)


# --- property: the slot template equals span-by-span substitution -------------------

def _split_glue(token):
    start, end = 0, len(token)
    while start < end and token[start] in ".,;:!?()[]{}\"'`":
        start += 1
    while end > start and token[end - 1] in ".,;:!?()[]{}\"'`":
        end -= 1
    return token[:start], token[end:]


def _expand_oracle(prompt, detections, lex):
    """Expansion as first written: a fresh token list per value combination,
    each span replaced right to left with the punctuation glued to it."""
    tokens = prompt.split()
    if not detections:
        return CandidateSet((" ".join(tokens),), 0)
    ordered = sorted(detections, key=lambda d: lex.class_order(d.attr_class))
    spaces = [lex.class_named(d.attr_class).values for d in ordered]
    prompts, real_index = [], -1
    for combo in itertools.product(*spaces):
        out = list(tokens)
        for det, value in sorted(zip(ordered, combo), key=lambda p: -p[0].start):
            prefix = _split_glue(out[det.start])[0]
            suffix = _split_glue(out[det.end - 1])[1]
            out[det.start:det.end] = [prefix + value + suffix]
        if combo == tuple(d.value for d in ordered):
            real_index = len(prompts)
        prompts.append(" ".join(out))
    return CandidateSet(tuple(prompts), real_index)


SURFACES = sorted(" ".join(key) for key in LEX.surfaces)
FILLERS = ("portrait", "of", "a", "photo", "B&W", "wearing", "glasses", ",", "-")
SEPARATORS = (" ", " ", "  ", "\t", " \n ")


@st.composite
def _glued(draw, words):
    word = draw(st.sampled_from(words))
    case = draw(st.sampled_from((str, str.upper, str.title)))
    return (draw(st.sampled_from(("", "(", '"', "(["))) + case(word)
            + draw(st.sampled_from(("", ",", ".", "),", "!", "'s"))))


@st.composite
def _piece_prompts(draw):
    pieces = draw(st.lists(st.one_of(_glued(SURFACES), _glued(FILLERS)),
                           min_size=1, max_size=8))
    text = draw(st.sampled_from(SEPARATORS))
    for piece in pieces:
        text += piece + draw(st.sampled_from(SEPARATORS))
    return text


@st.composite
def _template_prompts(draw):
    prompt = draw(st.sampled_from(DEFAULT_TEMPLATES))
    for placeholder in ("$gender", "$age", "$ethnicity"):
        prompt = prompt.replace(placeholder, draw(st.sampled_from(SURFACES)))
    return prompt


@settings(max_examples=150)
@given(st.one_of(_piece_prompts(), _template_prompts()))
@example("(young, african man.")            # glue on first and last tokens
@example("(Middle Aged, indian guy).")      # glue around a two-token surface
@example("man woman old young")             # adjacent spans, repeated classes
@example("  elderly\tASIAN   lady  ")       # spans at both ends, extra space
@example("a red bicycle")
def test_slot_template_matches_span_by_span_substitution(prompt):
    dets = detect_attributes(prompt, LEX)
    assert expand_candidates(prompt, dets, LEX) == _expand_oracle(prompt, dets, LEX)


# --- extraction ------------------------------------------------------------------

def test_extract_single_row():
    cset = _expand("a red bicycle")
    batch = np.stack([Rng(1).gaussian((4, 4, 4))])
    assert same_bits(extract_latent(batch, cset), batch[0])


def test_extract_picks_real_index_bitwise():
    cset = _expand("portrait of a young man")
    rows = [Rng(10 + i).gaussian((4, 4, 4)) for i in range(cset.size)]
    got = extract_latent(np.stack(rows), cset)
    assert same_bits(got, rows[cset.real_index])


def test_extract_rejects_size_mismatch():
    cset = _expand("portrait of a young man")
    batch = np.stack([Rng(1).gaussian((4, 4, 4))])
    with pytest.raises(ProtocolError):
        extract_latent(batch, cset)


# --- property: cardinality is the value-space product ------------------------------

@st.composite
def synthetic_lexicon_and_prompt(draw):
    n_classes = draw(st.integers(1, 3))
    classes = []
    for ci in range(n_classes):
        n_values = draw(st.integers(1, 4))
        values = [f"c{ci}v{vi}" for vi in range(n_values)]
        classes.append(f"[class{ci}]\n" + "\n".join(
            f"{v}: {v}syn" for v in values))
    lex = AttributeLexicon.from_text("\n".join(classes))
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=0,
                            max_size=n_classes, unique=True))
    words = ["filler0", "filler1"]
    for ci in sorted(present):
        vi = draw(st.integers(0, len(lex.classes[ci].values) - 1))
        use_syn = draw(st.booleans())
        value = lex.classes[ci].values[vi]
        words.append(value + "syn" if use_syn else value)
        words.append(f"filler{ci + 2}")
    return lex, " ".join(words), present


@settings(max_examples=80)
@given(synthetic_lexicon_and_prompt())
def test_candidate_count_is_product_of_detected_spaces(case):
    lex, prompt, present = case
    dets = detect_attributes(prompt, lex)
    assert sorted(d.attr_class for d in dets) == sorted(
        f"class{ci}" for ci in present)
    cset = expand_candidates(prompt, dets, lex)
    expected = 1
    for ci in present:
        expected *= len(lex.classes[ci].values)
    assert cset.size == expected
    assert cset.prompts.count(cset.real_prompt) == 1


# --- lexicon parsing ----------------------------------------------------------------

def test_lexicon_rejects_cross_class_synonym_collision():
    with pytest.raises(ConfigError):
        AttributeLexicon.from_text(
            "[a]\nx: shared\n[b]\ny: shared\n")


def test_lexicon_rejects_surfaces_that_scan_as_the_same_tokens():
    # detection matches token tuples, so spacing cannot split a collision
    with pytest.raises(ConfigError, match="appears in classes 'a' and 'b'"):
        AttributeLexicon.from_text(
            "[a]\nx: dark skin\n[b]\ny: dark   skin\n")


def test_lexicon_parse_rejects_orphan_value():
    with pytest.raises(ConfigError):
        AttributeLexicon.from_text("lonely: alone\n")


def test_lexicon_parse_rejects_an_empty_value():
    # with it, "foo" would expand to an empty prompt and "a foo" to "a "
    with pytest.raises(ConfigError, match="line 2: empty value"):
        AttributeLexicon.from_text("[c]\n: foo\nbar:\n")


@pytest.mark.parametrize("text, message", [
    # with it, "a x person" found no combination with "x" in the product
    ("[a]\nx:\n[a]\ny:\n", "class 'a' appears twice"),
    ("[]\nx:\n", "an attribute class has an empty name"),
], ids=["repeated", "empty"])
def test_lexicon_rejects_a_repeated_or_empty_class_name(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        AttributeLexicon.from_text(text)


def test_lexicon_file_roundtrip(tmp_path):
    from oblix.oblivious import DEFAULT_LEXICON_TEXT
    path = tmp_path / "lex.txt"
    path.write_text(DEFAULT_LEXICON_TEXT)
    lex = AttributeLexicon.load(str(path))
    assert [c.name for c in lex.classes] == ["gender", "age", "ethnicity"]
    assert lex.class_named("age").values == ("young", "middle-aged", "old")
    assert lex.class_named("ethnicity").values == (
        "caucasian", "african", "asian", "indian", "european")


def test_data_files_match_builtin_defaults():
    """The on-disk samples in data/ stay in step with the built-in defaults."""
    assert AttributeLexicon.load(str(DATA / "lexicon.txt")).classes == LEX.classes
    assert load_templates(str(DATA / "templates.txt")) == DEFAULT_TEMPLATES


# --- templates and corpus -------------------------------------------------------------

TEMPLATE_FILLS = {
    "assigned": ("photo of a $age $gender", {"age": "young", "gender": "male"},
                 "photo of a young male"),
    "repeated placeholder": ("a $gender beside a $gender", {"gender": "female"},
                             "a female beside a female"),
    "glued punctuation": ("($age, $gender).", {"age": "old", "gender": "male"},
                          "(old, male)."),
    "missing assignment": ("photo of a $age $gender", {"age": "young"},
                           InputError("no value assigned for $gender")),
    "unknown class": ("photo of a $species", {},
                      InputError("unknown placeholder $species")),
}


@pytest.mark.parametrize("template, assignment, expected",
                         TEMPLATE_FILLS.values(), ids=TEMPLATE_FILLS.keys())
def test_template_fill(template, assignment, expected):
    if isinstance(expected, InputError):
        with pytest.raises(InputError, match=f"^{re.escape(str(expected))}$"):
            fill_template(template, assignment, LEX)
        return
    assert fill_template(template, assignment, LEX) == expected
    # the assignment names each class once, in the order of first mention,
    # and the corpus fills a template the same way
    assert template_classes(template, LEX) == list(assignment)
    assert {"prompt": expected, "attributes": assignment} in generate_corpus(
        (template,), LEX)


def test_default_templates_cover_all_three_classes():
    assert len(DEFAULT_TEMPLATES) == 10
    for t in DEFAULT_TEMPLATES:
        assert sorted(template_classes(t, LEX)) == [
            "age", "ethnicity", "gender"]


def test_full_corpus_is_300_distinct_prompts():
    records = generate_corpus(DEFAULT_TEMPLATES, LEX)
    assert len(records) == 300
    assert len({r["prompt"] for r in records}) == 300


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_corpus_and_its_expansions_keep_their_digests():
    # every prompt, attribute assignment, candidate list and real index the
    # template and substitution code writes for the default corpus, in order
    records = generate_corpus(DEFAULT_TEMPLATES, LEX)
    assert _sha256(records) == (
        "6024f263af53d16d23f9659f1fcd2a104b6bfa2d147c748a3b682dfcd7ea3964")
    expansions = [_expand(rec["prompt"]) for rec in records]
    assert _sha256([[list(c.prompts), c.real_index] for c in expansions]) == (
        "8ad64880b0f711b16a807fcec5cab0345739d50a10ced386230fe17796e51d1f")


def test_corpus_sampling_is_seed_pinned():
    a = generate_corpus(DEFAULT_TEMPLATES, LEX, count=40, seed=5)
    b = generate_corpus(DEFAULT_TEMPLATES, LEX, count=40, seed=5)
    c = generate_corpus(DEFAULT_TEMPLATES, LEX, count=40, seed=6)
    assert a == b
    assert a != c
    assert len(a) == 40


def test_every_corpus_prompt_redetects_its_assignment():
    for rec in generate_corpus(DEFAULT_TEMPLATES, LEX):
        detected = {d.attr_class: d.value
                    for d in detect_attributes(rec["prompt"], LEX)}
        assert detected == rec["attributes"]


def test_corrupt_corpus_reports_the_line(tmp_path):
    from oblix.errors import InputError
    from oblix.oblivious import read_corpus
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"prompt": "ok", "attributes": {}}\nnot json\n')
    with pytest.raises(InputError) as err:
        read_corpus(str(path))
    assert ":2:" in str(err.value)


def test_load_templates_skips_comments(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_text("# comment\n\nphoto of a $age $gender\n")
    assert load_templates(str(path)) == ("photo of a $age $gender",)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InputError):
        load_templates(str(empty))
