"""Client-side oblivious transformation.

Detection finds sensitive-attribute mentions with a case-insensitive
longest-match scan over a lexicon of synonyms.  Expansion substitutes the
full value space of every detected attribute class (Cartesian product)
into the detected spans, producing a candidate set whose ORDER is a pure
function of the non-sensitive tokens and the detected classes.  The real
prompt's position inside that set is the client-private index and never
reaches any wire structure.

Canonical ordering is what makes the whole scheme sound: candidates are
sorted by value indices with the class order fixed by the lexicon, so any
member of an equivalence class expands to the identical ordered list.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InternalError, ProtocolError

log = logging.getLogger("oblix.oblivious")

_STRIP_CHARS = ".,;:!?()[]{}\"'`"


@dataclass(frozen=True)
class AttributeClass:
    name: str
    values: tuple[str, ...]                 # canonical surfaces, ordered
    synonyms: dict[str, str]                # lowercase surface -> canonical


class AttributeLexicon:
    """Ordered attribute classes with per-value synonym sets."""

    def __init__(self, classes: list[AttributeClass]):
        if not classes:
            raise ConfigError("lexicon needs at least one attribute class")
        # token tuple of each surface -> (class name, canonical value)
        self.surfaces: dict[tuple[str, ...], tuple[str, str]] = {}
        for cls in classes:
            if not cls.values:
                raise ConfigError(f"class {cls.name!r} has an empty value space")
            if len(set(cls.values)) != len(cls.values):
                raise ConfigError(f"class {cls.name!r} repeats a value")
            for surface, canonical in cls.synonyms.items():
                key = tuple(surface.split())
                owner = self.surfaces.get(key)
                if owner is not None and owner[0] != cls.name:
                    raise ConfigError(
                        f"surface {surface!r} appears in classes "
                        f"{owner[0]!r} and {cls.name!r}"
                    )
                self.surfaces[key] = (cls.name, canonical)
        self.classes = tuple(classes)
        self._by_name = {c.name: c for c in classes}
        self._order = {c.name: i for i, c in enumerate(classes)}
        # longest synonym first so multi-token surfaces win the scan
        self.max_ngram = max(len(key) for key in self.surfaces)

    def class_named(self, name: str) -> AttributeClass:
        if name not in self._by_name:
            raise ConfigError(f"unknown attribute class {name!r}")
        return self._by_name[name]

    def class_order(self, name: str) -> int:
        return self._order[name]

    @classmethod
    def from_text(cls, text: str) -> "AttributeLexicon":
        """Parse the plain-text lexicon format:

            [class]
            canonical: synonym, synonym, ...
        """
        classes: list[AttributeClass] = []
        current: str | None = None
        values: list[str] = []
        synonyms: dict[str, str] = {}

        def flush():
            nonlocal values, synonyms
            if current is not None:
                classes.append(AttributeClass(current, tuple(values), dict(synonyms)))
            values, synonyms = [], {}

        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                flush()
                current = line[1:-1].strip()
                continue
            if current is None:
                raise ConfigError(f"line {lineno}: value outside any [class]")
            canonical, _, rest = line.partition(":")
            canonical = canonical.strip()
            values.append(canonical)
            synonyms[canonical.lower()] = canonical
            for surface in rest.split(","):
                surface = surface.strip().lower()
                if surface:
                    synonyms[surface] = canonical
        flush()
        return cls(classes)

    @classmethod
    def load(cls, path: str) -> "AttributeLexicon":
        return cls.from_text(_read_text(path))


DEFAULT_LEXICON_TEXT = """\
# Sensitive-attribute taxonomy: one [class] per section, ordered values,
# each with its accepted surface forms.
[gender]
male: man, men, boy, gentleman, guy
female: woman, women, girl, lady

[age]
young: youthful, teenage
middle-aged: middle aged
old: elderly

[ethnicity]
caucasian:
african:
asian:
indian:
european:
"""


def default_lexicon() -> AttributeLexicon:
    return AttributeLexicon.from_text(DEFAULT_LEXICON_TEXT)


@dataclass(frozen=True)
class Detection:
    """One detected attribute mention: token span, class, canonical value."""

    start: int
    end: int
    attr_class: str
    value: str


def normalize_prompt(prompt: str) -> str:
    return " ".join(prompt.split())


def _split_token(token: str) -> tuple[str, str, str]:
    """Split punctuation off a token: (prefix, core, suffix)."""
    start, end = 0, len(token)
    while start < end and token[start] in _STRIP_CHARS:
        start += 1
    while end > start and token[end - 1] in _STRIP_CHARS:
        end -= 1
    return token[:start], token[start:end], token[end:]


def detect_attributes(prompt: str, lex: AttributeLexicon) -> list[Detection]:
    """Longest-match scan for attribute surfaces, first occurrence per class.

    Matching is case-insensitive and ignores punctuation glued to tokens;
    repeated mentions of an already-detected class are left intact with a
    warning, mirroring how substitution later touches only the first span.
    """
    norm = normalize_prompt(prompt)
    if not norm:
        raise InputError("prompt is empty")
    tokens = norm.split()
    cores = [_split_token(t)[1].lower() for t in tokens]

    found: dict[str, Detection] = {}
    i = 0
    while i < len(tokens):
        matched = False
        for n in range(min(lex.max_ngram, len(tokens) - i), 0, -1):
            key = tuple(cores[i:i + n])
            if key in lex.surfaces and all(key):
                cls_name, canonical = lex.surfaces[key]
                if cls_name in found:
                    log.warning(
                        "attribute class %r occurs again at token %d; "
                        "only the first mention is transformed", cls_name, i
                    )
                else:
                    found[cls_name] = Detection(i, i + n, cls_name, canonical)
                i += n
                matched = True
                break
        if not matched:
            i += 1
    return sorted(found.values(), key=lambda d: d.start)


@dataclass(frozen=True)
class CandidateSet:
    """Ordered candidate prompts with the client-private real index."""

    prompts: tuple[str, ...]
    real_index: int

    @property
    def size(self) -> int:
        return len(self.prompts)

    @property
    def real_prompt(self) -> str:
        return self.prompts[self.real_index]


def expand_candidates(prompt: str, detections: list[Detection],
                      lex: AttributeLexicon) -> CandidateSet:
    """Substitute every value combination of the detected classes.

    Candidates are ordered lexicographically by value indices with class
    order taken from the lexicon, never from the real prompt, so every
    member of the equivalence class produces the identical list.
    """
    tokens = normalize_prompt(prompt).split()
    if not tokens:
        raise InputError("prompt is empty")
    ordered = sorted(detections, key=lambda d: lex.class_order(d.attr_class))
    classes = [lex.class_named(d.attr_class) for d in ordered]
    prompts = _substitute(tokens, [(d.start, d.end, c.values)
                                   for d, c in zip(ordered, classes)])
    if "" in prompts:
        raise InternalError("substitution produced an empty prompt")
    # the last class varies fastest: the real index is read in mixed radix
    real_index = 0
    for det, cls in zip(ordered, classes):
        if det.value not in cls.values:
            raise InternalError("real value combination missing from the product")
        real_index = real_index * len(cls.values) + cls.values.index(det.value)
    return CandidateSet(tuple(prompts), real_index)


def _substitute(tokens: list[str], spans: list[tuple]) -> list[str]:
    """Each prompt that puts one of its values in every (start, end, values)
    span, in `itertools.product` order over ``spans``; one template has a slot
    per span, whose fills keep the punctuation glued to its outer tokens."""
    template: list[str] = []
    slots = [0] * len(spans)                # template index, in span order
    fills: list[tuple[str, ...]] = [()] * len(spans)
    pos = 0
    for i, (start, end, values) in sorted(enumerate(spans),
                                          key=lambda p: p[1][0]):
        if start < pos:
            raise InternalError("detection spans overlap")
        prefix = _split_token(tokens[start])[0]
        suffix = _split_token(tokens[end - 1])[2]
        fills[i] = tuple(prefix + v + suffix for v in values)
        template += tokens[pos:start]
        slots[i] = len(template)
        template.append("")
        pos = end
    template += tokens[pos:]

    prompts: list[str] = []
    for combo in itertools.product(*fills):
        for slot, fill in zip(slots, combo):
            template[slot] = fill
        prompts.append(" ".join(template))
    return prompts


def extract_latent(batch: np.ndarray, cset: CandidateSet) -> np.ndarray:
    """The batch row belonging to the real prompt (client-local), as a view."""
    if batch.shape[0] != cset.size:
        raise ProtocolError(
            f"batch holds {batch.shape[0]} rows, candidate set has {cset.size}"
        )
    return batch[cset.real_index]


# ---------------------------------------------------------------------------
# Prompt templates and corpus generation
# ---------------------------------------------------------------------------

DEFAULT_TEMPLATES = (
    "headshots portrait with a $age $ethnicity $gender covered in religious tattoos.",
    "$age $ethnicity $gender in hat Fashion portrait photo",
    "Smiling $age $ethnicity $gender sitting on flower field, Outdoor portrait photo",
    "$age red haired $gender $ethnicity urban portrait photo",
    "Faceshot Portrait of pretty $age $ethnicity $gender wearing a high neck sweater",
    "Closeup portrait photo of a $age $ethnicity $gender, wearing a rugged leather "
    "jacket, captured in soft, golden hour lighting.",
    "RAW photo, closeup, portrait of a $age $ethnicity $gender, wearing minimal "
    "makeup, with a serene expression in a lush botanical garden.",
    "High-quality, face portrait photo of a $age $ethnicity $gender, wearing "
    "glasses, revealing the fine lines on the forehead.",
    "B&W photo of a $age $ethnicity $gender, shot from the side, highlighting "
    "elegant profile and the delicate lines etched across cheeks.",
    "High-quality, closeup portrait photo of a $age $ethnicity $gender, wearing "
    "traditional clothing.",
)


def _read_text(path: str) -> str:
    """A UTF-8 file's text; any other bytes are an InputError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text ({exc.reason} at "
                             f"byte {exc.start})") from None


def load_templates(path: str) -> tuple[str, ...]:
    """One template per line; blank lines and # comments ignored."""
    lines = [ln.strip() for ln in _read_text(path).splitlines()]
    templates = tuple(ln for ln in lines if ln and not ln.startswith("#"))
    if not templates:
        raise InputError(f"no templates found in {path}")
    return templates


def _parse_template(template: str, lex: AttributeLexicon) -> tuple[list, list]:
    """A template's tokens and the (token index, class) of each $class."""
    tokens = template.split()
    slots = []
    for i, token in enumerate(tokens):
        core = _split_token(token)[1]
        if core.startswith("$"):
            if core[1:] not in lex._by_name:
                raise InputError(f"unknown placeholder {core}")
            slots.append((i, core[1:]))
    return tokens, slots


def fill_template(template: str, assignment: dict[str, str],
                  lex: AttributeLexicon) -> str:
    """Replace $class placeholders with canonical value surfaces."""
    tokens, slots = _parse_template(template, lex)
    for _, name in slots:
        if name not in assignment:
            raise InputError(f"no value assigned for ${name}")
    return _substitute(tokens, [(i, i + 1, (assignment[name],))
                                for i, name in slots])[0]


def template_classes(template: str, lex: AttributeLexicon) -> list[str]:
    return list(dict.fromkeys(n for _, n in _parse_template(template, lex)[1]))


def generate_corpus(templates: tuple[str, ...], lex: AttributeLexicon,
                    count: int | None = None, seed: int = 0) -> list[dict]:
    """Emit {prompt, attributes} records from the template set.

    The full enumeration (every template crossed with every value
    combination) is deterministic; when ``count`` asks for fewer records a
    seed-pinned sample without replacement is taken.
    """
    records: list[dict] = []
    for template in templates:
        tokens, slots = _parse_template(template, lex)
        names = list(dict.fromkeys(name for _, name in slots))
        spaces = [lex.class_named(n).values for n in names]
        for combo in itertools.product(*spaces):
            assignment = dict(zip(names, combo))
            prompt = _substitute(tokens, [(i, i + 1, (assignment[name],))
                                          for i, name in slots])[0]
            records.append({"prompt": prompt, "attributes": assignment})
    if count is not None and count < len(records):
        rng = random.Random(seed)
        records = rng.sample(records, count)
    return records


def write_corpus(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_corpus(path: str) -> list[dict]:
    """A corpus file's records: JSON objects, each with a string "prompt"."""
    records = []
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise InputError(f"corpus {path!r} cannot be read ({exc.strerror})") \
            from None
    with f:
        # decoded line by line, so a bad byte is named by its own line
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not UTF-8 text "
                                 f"({exc.reason})") from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not a JSON record ({exc})") \
                    from None
            if not isinstance(rec, dict) or not isinstance(rec.get("prompt"), str):
                raise InputError(f'{path}:{lineno}: record has no string "prompt"')
            records.append(rec)
    return records
