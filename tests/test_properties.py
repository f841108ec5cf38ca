"""Property tests: the IOB repair, the scorer and the CoNLL writer/reader
against their contracts on generated input."""

import io
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (DEFAULT_ENTITY_TYPES, Sentence, Token, read_conll,
                           repair_iob, validate_iob2, write_conll)
from seqtag.eval import score
from seqtag.selfcheck import oracle_score


def label_lists(entity_types, **sizes):
    """Lists of labels drawn uniformly from the IOB2 alphabet of
    `entity_types`."""
    alphabet = ["O"] + [f"{p}-{t}" for t in entity_types for p in "BI"]
    return st.lists(st.sampled_from(alphabet), **sizes)


labels = label_lists(DEFAULT_ENTITY_TYPES, max_size=12)
valid_labels = labels.map(repair_iob)
# the label walks and the scorer take no type set: any name the IOB grammar
# allows is drawn, beside the default set
type_sets = st.one_of(
    st.just(DEFAULT_ENTITY_TYPES),
    st.lists(st.text(string.ascii_letters + string.digits + "_", min_size=1,
                     max_size=6), min_size=1, max_size=4, unique=True))

# examples are tiny; a per-example deadline would only measure host load
relaxed = settings(deadline=None)


@st.composite
def typed_labels(draw):
    entity_types = draw(type_sets)
    return entity_types, draw(label_lists(entity_types, max_size=12))


@relaxed
@given(typed_labels())
def test_repair_iob_output_is_valid_and_a_fixed_point(drawn):
    entity_types, raw = drawn
    repaired = repair_iob(raw)
    validate_iob2(repaired, entity_types)
    assert repair_iob(repaired) == repaired


@st.composite
def gold_pred_pairs(draw):
    """Up to six (gold, raw prediction) pairs over one drawn type set."""
    entity_types = draw(type_sets)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        gold = repair_iob(draw(label_lists(entity_types, max_size=12)))
        pred = draw(label_lists(entity_types, min_size=len(gold),
                                max_size=len(gold)))
        pairs.append((gold, pred))
    return pairs


@relaxed
@given(gold_pred_pairs())
def test_score_equals_oracle(pairs):
    # score repairs the raw predictions itself; the oracle takes them repaired
    sentences = [Sentence([Token(f"w{k}", gold_label=g, predicted_label=p)
                           for k, (g, p) in enumerate(zip(gold, pred))])
                 for gold, pred in pairs]
    report = score(sentences)
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
