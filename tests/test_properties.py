"""Property tests: the IOB repair, the scorer and the CoNLL writer/reader
against their contracts on generated input."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (DEFAULT_ENTITY_TYPES, Sentence, Token, read_conll,
                           repair_iob, validate_iob2, write_conll)
from seqtag.eval import score
from seqtag.selfcheck import oracle_score

ALPHABET = ["O"] + [f"{p}-{t}" for t in DEFAULT_ENTITY_TYPES for p in "BI"]
labels = st.lists(st.sampled_from(ALPHABET), max_size=12)
valid_labels = labels.map(repair_iob)

# examples are tiny; a per-example deadline would only measure host load
relaxed = settings(deadline=None)


@relaxed
@given(labels)
def test_repair_iob_output_is_valid_and_a_fixed_point(raw):
    repaired = repair_iob(raw)
    validate_iob2(repaired)
    assert repair_iob(repaired) == repaired


@st.composite
def gold_pred_pairs(draw):
    gold = draw(valid_labels)
    pred = draw(st.lists(st.sampled_from(ALPHABET), min_size=len(gold),
                         max_size=len(gold)))
    return gold, pred


@relaxed
@given(st.lists(gold_pred_pairs(), max_size=6))
def test_score_equals_oracle(pairs):
    # score repairs the raw predictions itself; the oracle takes them repaired
    sentences = [Sentence([Token(f"w{k}", gold_label=g, predicted_label=p)
                           for k, (g, p) in enumerate(zip(gold, pred))])
                 for gold, pred in pairs]
    report = score(sentences, entity_types=DEFAULT_ENTITY_TYPES)
    per_type, overall = oracle_score([(gold, repair_iob(pred))
                                      for gold, pred in pairs])
    counts = ("gold", "predicted", "correct")
    assert {f: getattr(report.overall, f) for f in counts} == overall
    assert {t: {f: getattr(s, f) for f in counts}
            for t, s in report.per_type.items()} == per_type


# one CoNLL field: no whitespace, since whitespace separates the columns
fields = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                 max_size=8).filter(lambda s: not any(c.isspace() for c in s))
surfaces = fields.filter(lambda s: not s.startswith("-DOCSTART-"))


@st.composite
def sentences(draw):
    gold = draw(valid_labels.filter(bool))
    return Sentence([Token(draw(surfaces), draw(fields), draw(fields), label)
                     for label in gold])


@relaxed
@given(st.lists(sentences(), max_size=4))
def test_write_then_read_conll_round_trips(corpus):
    buf = io.StringIO()
    write_conll(corpus, buf)
    back = read_conll(io.StringIO(buf.getvalue()))

    def rows(sents):
        return [[(t.surface, t.pos, t.chunk, t.gold_label) for t in s]
                for s in sents]

    assert rows(back) == rows(corpus)
