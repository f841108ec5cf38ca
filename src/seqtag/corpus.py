"""CoNLL-format corpus handling: reading/writing sentence files, IOB label
validation and repair, IOB1/IOB2 scheme conversion, entity span extraction,
and corpus statistics.

The canonical label scheme inside the package is IOB2: every entity starts
with B-. IOB1 files (B- only between adjacent same-type entities) can be
converted on ingest. Validation, repair, span extraction and conversion are
each one walk over the labels (_walk), under one rule: an entity label
continues an entity only when the previous label has the same entity type.
"""

import functools
import os
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

DEFAULT_ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
DEFAULT_MAX_SENTENCE_LEN = 150
SCHEMES = ("IOB1", "IOB2")

ENTITY_TYPE = r"[A-Za-z0-9_]+"  # the grammar of an entity-type name
_LABEL_RE = re.compile(rf"^(O|[BI]-{ENTITY_TYPE})$")


class CorpusError(ValueError):
    pass


class MalformedLine(CorpusError):
    """A token line has fewer columns than the column map requires."""


class InvalidLabel(CorpusError):
    """A label is not 'O' or '{B|I}-TYPE' with TYPE in the configured set."""


class InvalidSequence(CorpusError):
    """A label has no valid predecessor: an I-X in IOB2, a B-X in IOB1."""


@dataclass(slots=True)
class Token:
    surface: str
    pos: str = "_"
    chunk: str = "_"
    gold_label: str = "O"
    predicted_label: str | None = None


@dataclass
class Sentence:
    tokens: list[Token] = field(default_factory=list)

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    def gold_labels(self):
        return [t.gold_label for t in self.tokens]

    def predicted_labels(self):
        return [t.predicted_label for t in self.tokens]


class EntitySpan(NamedTuple):
    entity_type: str
    start: int  # inclusive token index
    end: int    # inclusive token index


@dataclass
class ColumnMap:
    """Which column holds which field. A negative index counts from the end
    of the line, as in conlleval files (gold label -2, prediction -1). None
    marks a field the file lacks: the token keeps its default ("_" for POS
    and chunk, "O" for the label, no prediction).
    """
    surface: int = 0
    pos: int | None = 1
    chunk: int | None = 2
    label: int | None = 3
    predicted: int | None = None

    def min_columns(self):
        idxs = [i for i in (self.surface, self.pos, self.chunk, self.label,
                            self.predicted) if i is not None]
        return max(i + 1 if i >= 0 else -i for i in idxs)


def label_alphabet(entity_types=DEFAULT_ENTITY_TYPES):
    """The IOB2 label set for the given entity types: O first, then B-/I-
    pairs in sorted type order (9 labels for the default four types)."""
    labels = ["O"]
    for etype in sorted(entity_types):
        labels.append("B-" + etype)
        labels.append("I-" + etype)
    return labels


def parse_label(label, entity_types=DEFAULT_ENTITY_TYPES):
    """Split a label into (prefix, type); raises InvalidLabel on bad syntax
    or an unknown entity type. entity_types=None accepts any type token."""
    prefix, etype = _split_label(label)
    if etype is not None and entity_types is not None \
            and etype not in entity_types:
        raise InvalidLabel(
            f"label {label!r} uses unknown entity type {etype!r} "
            f"(configured: {sorted(entity_types)})")
    return prefix, etype


@functools.lru_cache(maxsize=1024)
def _split_label(label):
    """parse_label's syntax split, memoized: a corpus uses few distinct
    labels, and the bound keeps a hostile label set from growing the cache.
    A label off the grammar raises each time, and is never cached."""
    if label == "O":
        return "O", None
    if not _LABEL_RE.match(label):
        raise InvalidLabel(f"label {label!r} does not match the IOB grammar")
    prefix, etype = label.split("-", 1)
    return prefix, etype


def _walk(labels, scheme=None):
    """Yield (label, prefix, type, continues) for each label, where
    `continues` says whether the previous label has the same entity type:
    the one rule for when an entity label extends an entity, in IOB1 and
    IOB2 alike (Tjong Kim Sang & Veenstra, 1999). Raises InvalidLabel off
    the IOB grammar, and InvalidSequence at the label `scheme` requires to
    continue an entity: an I-X in IOB2, a B-X in IOB1 (None checks none)."""
    must_continue = {"IOB2": "I", "IOB1": "B"}.get(scheme)
    prev, prev_type = "O", None
    for i, label in enumerate(labels):
        prefix, etype = _split_label(label)
        continues = etype is not None and etype == prev_type
        if prefix == must_continue and not continues:
            raise InvalidSequence(f"position {i}: {label!r} " + (
                f"has no valid predecessor (previous label was {prev!r})"
                if scheme == "IOB2" else
                "is not preceded by an entity of the same type (IOB1)"))
        yield label, prefix, etype, continues
        prev, prev_type = label, etype


def _mark_starts(walk, scheme):
    """The labels of a _walk in `scheme`. An entity starts at every entity
    label that does not continue one, marked B-X in IOB2 and I-X in IOB1,
    so only such a label with the other marker is rewritten. A label that
    continues an entity is kept: B-X then starts an adjacent entity of the
    same type in either scheme."""
    other, start = ("I", "B-") if scheme == "IOB2" else ("B", "I-")
    return [start + etype if prefix == other and not continues else label
            for label, prefix, etype, continues in walk]


def validate_iob2(labels, entity_types=DEFAULT_ENTITY_TYPES):
    """Raise InvalidLabel as parse_label does, and InvalidSequence unless
    `labels` is valid IOB2 (every I-X preceded by B-X or I-X of its type)."""
    for label, _, _, _ in _walk(labels, "IOB2"):
        if entity_types is not None:  # the walk parsed it without a set
            parse_label(label, entity_types)


def repair_iob(labels):
    """Turn any sequence of O/B-X/I-X labels into valid IOB2.

    The only repair rule: an I-X with no valid predecessor becomes B-X.
    Idempotent; valid input comes back unchanged.
    """
    return _mark_starts(_walk(labels), "IOB2")


def extract_spans(labels):
    """Maximal B-X (I-X)* runs of a valid IOB2 sequence, as EntitySpans.

    Strict: raises InvalidSequence on an I-X without a valid predecessor,
    in the same walk. Run repair_iob first for model output.
    """
    spans = []
    opened = None  # (type, start) of the entity being read
    for i, (_, prefix, etype, _) in enumerate(_walk(labels, "IOB2")):
        if prefix != "I":  # validated: every I-X continues the open entity
            if opened:
                spans.append(EntitySpan(*opened, i - 1))
            opened = (etype, i) if prefix == "B" else None
    if opened:  # the loop ran, so i is the last position
        spans.append(EntitySpan(*opened, i))
    return spans


def spans_to_labels(spans, length):
    """Inverse of extract_spans: emit the IOB2 sequence for a span set."""
    labels = ["O"] * length
    for span in spans:
        if not (0 <= span.start <= span.end < length):
            raise ValueError(f"span {span} out of range for length {length}")
        if any(labels[k] != "O" for k in range(span.start, span.end + 1)):
            raise ValueError(f"span {span} overlaps another span")
        labels[span.start] = "B-" + span.entity_type
        for k in range(span.start + 1, span.end + 1):
            labels[k] = "I-" + span.entity_type
    return labels


def convert_scheme(labels, from_scheme, to_scheme):
    """Convert between IOB1 and IOB2, preserving the span set exactly. The
    input is validated in `from_scheme`; IOB1 to IOB2 is then repair_iob's
    rule, and IOB2 to IOB1 keeps B-X only where it continues an entity."""
    if from_scheme not in SCHEMES or to_scheme not in SCHEMES:
        raise ValueError(f"unknown scheme in {from_scheme!r} -> {to_scheme!r}")
    return _mark_starts(_walk(labels, from_scheme), to_scheme)


def split_columns(line):
    """Fields of one CoNLL line, or None for a blank or -DOCSTART- line.
    Fields are separated by single tabs when the line has one (each field
    stripped of surrounding spaces), else by runs of whitespace."""
    line = line.strip()
    if not line or line.startswith("-DOCSTART-"):
        return None
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    return line.split()


def read_conll(source, columns=None, entity_types=DEFAULT_ENTITY_TYPES,
               strict=True, scheme="IOB2"):
    """Parse a CoNLL stream (iterable of lines or a file path) into sentences.

    Lines are split by split_columns; blank lines end sentences;
    -DOCSTART- lines are skipped. A gold label of a type outside
    `entity_types` (None: any) fails, naming its line. With strict=False,
    label sequence violations are repaired via repair_iob instead of
    raising. scheme="IOB1" converts gold labels to IOB2 on ingest; a scheme
    outside SCHEMES is a ValueError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{', '.join(SCHEMES)}")
    if columns is None:
        columns = ColumnMap()
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_conll(handle, columns, entity_types, strict, scheme)

    sentences = []
    tokens = []
    label_lines = []  # line number per token, for sequence-error reporting

    def finish():
        nonlocal tokens, label_lines
        if not tokens:
            return
        labels = [t.gold_label for t in tokens]
        for lineno, label in zip(label_lines, labels):
            try:
                parse_label(label, entity_types)
            except InvalidLabel as exc:
                raise InvalidLabel(f"line {lineno}: {exc}") from None
        try:
            if scheme == "IOB1":
                labels = convert_scheme(labels, "IOB1", "IOB2")
            elif strict:
                validate_iob2(labels, None)
            else:
                labels = repair_iob(labels)
        except InvalidSequence as exc:
            raise InvalidSequence(f"near line {label_lines[0]}: {exc}") from None
        for tok, label in zip(tokens, labels):
            tok.gold_label = label
        sentences.append(Sentence(tokens))
        tokens, label_lines = [], []

    def field(cols, index, default):
        return default if index is None else cols[index]

    needed = columns.min_columns()
    for lineno, raw in enumerate(source, start=1):
        cols = split_columns(raw)
        if cols is None:
            if not raw.strip():  # a blank line; -DOCSTART- lines end nothing
                finish()
            continue
        if len(cols) < needed:
            raise MalformedLine(
                f"line {lineno}: expected at least {needed} columns, "
                f"got {len(cols)}: {raw.strip()!r}")
        tok = Token(cols[columns.surface], field(cols, columns.pos, "_"),
                    field(cols, columns.chunk, "_"),
                    field(cols, columns.label, "O"),
                    field(cols, columns.predicted, None))
        if not tok.surface:
            raise MalformedLine(f"line {lineno}: empty surface form")
        tokens.append(tok)
        label_lines.append(lineno)
    finish()
    return sentences


def write_conll(sentences, sink, gold=True):
    """Write sentences back out, single-space separated, blank line between
    sentences: surface, POS, chunk, the gold label unless gold=False, and
    the predicted label of every token that holds one."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as handle:
            write_conll(sentences, handle, gold)
        return
    for sent in sentences:
        for tok in sent:
            fields = [tok.surface, tok.pos, tok.chunk]
            if gold:
                fields.append(tok.gold_label)
            if tok.predicted_label is not None:
                fields.append(tok.predicted_label)
            sink.write(" ".join(fields) + "\n")
        sink.write("\n")


def split_long(sentences, max_len=DEFAULT_MAX_SENTENCE_LEN):
    """Split sentences longer than max_len, cutting after the last O-labeled
    token inside the window, or failing that at the last entity boundary.
    Only an entity longer than max_len is cut, after max_len tokens, and
    its rest becomes an entity of its own: its first I-X turns B-X (in a
    new Token; the input is not changed). Bounds the BPTT sequence
    length."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    out = []
    for sent in sentences:
        tokens = list(sent.tokens)
        while len(tokens) > max_len:
            cut = None
            for i in range(max_len - 1, -1, -1):
                if tokens[i].gold_label == "O":
                    cut = i
                    break
            if cut is None:
                for i in range(max_len - 1, 0, -1):
                    if not tokens[i].gold_label.startswith("I-"):
                        cut = i - 1
                        break
            if cut is None:
                cut = max_len - 1  # single giant entity; hard split
            out.append(Sentence(tokens[:cut + 1]))
            tokens = tokens[cut + 1:]
            label = tokens[0].gold_label
            if label.startswith("I-"):
                tokens[0] = replace(tokens[0], gold_label="B-" + label[2:])
        if tokens:
            out.append(Sentence(tokens))
    return out


@dataclass
class CorpusStats:
    sentence_count: int
    token_count: int
    entity_counts: Counter

    @property
    def total_entities(self):
        return sum(self.entity_counts.values())


def stats(sentences):
    counts = Counter()
    sentence_count = tokens = 0
    for sent in sentences:
        sentence_count += 1
        tokens += len(sent)
        for span in extract_spans(sent.gold_labels()):
            counts[span.entity_type] += 1
    return CorpusStats(sentence_count, tokens, counts)


def render_stats(cs):
    """Aligned entity-count table plus machine-readable key=value lines."""
    rows = sorted(cs.entity_counts.items())
    width = max([len("Entity type")] + [len(t) for t, _ in rows])
    lines = [f"{'Entity type':<{width}}  {'Count':>8}"]
    for etype, n in rows:
        lines.append(f"{etype:<{width}}  {n:>8}")
    lines.append(f"{'ALL':<{width}}  {cs.total_entities:>8}")
    lines.append("")
    for etype, n in rows:
        lines.append(f"entities.{etype}={n}")
    lines.append(f"entities.ALL={cs.total_entities}")
    lines.append(f"sentences={cs.sentence_count}")
    lines.append(f"tokens={cs.token_count}")
    return "\n".join(lines) + "\n"
