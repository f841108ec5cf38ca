import io
import itertools
import re

import pytest

from seqtag import corpus
from seqtag.corpus import (ColumnMap, EntitySpan, InvalidLabel,
                           InvalidSequence, MalformedLine, Sentence, Token,
                           convert_scheme, extract_spans, label_alphabet,
                           read_conll, repair_iob, spans_to_labels,
                           split_long, stats, validate_iob2, write_conll)

SAMPLE = "Hà_Nội N B-NP B-LOC\nđẹp A B-AP O\n\n"


def test_read_conll_basic_two_tokens():
    sents = read_conll(io.StringIO(SAMPLE))
    assert len(sents) == 1
    sent = sents[0]
    assert len(sent) == 2
    assert sent[0].surface == "Hà_Nội"
    assert sent[0].pos == "N"
    assert sent[0].chunk == "B-NP"
    assert sent[0].gold_label == "B-LOC"
    assert sent[1].gold_label == "O"


def test_read_conll_empty_input():
    assert read_conll(io.StringIO("")) == []
    assert read_conll(io.StringIO("\n\n\n")) == []


def test_read_conll_too_few_columns():
    with pytest.raises(MalformedLine, match="line 2"):
        read_conll(io.StringIO("a N B-NP O\nb N\n"))


def test_read_conll_tab_separated_and_docstart():
    text = "-DOCSTART- O O O\n\na\tN\tB-NP\tB-PER\n\n"
    sents = read_conll(io.StringIO(text))
    assert len(sents) == 1
    assert sents[0][0].gold_label == "B-PER"


def test_read_conll_extra_columns_ignored():
    sents = read_conll(io.StringIO("a N B-NP B-PER B-XYZ extra\n\n"))
    assert sents[0][0].gold_label == "B-PER"


def test_read_conll_invalid_label_reports_line():
    with pytest.raises(InvalidLabel, match="line 1"):
        read_conll(io.StringIO("a N B-NP B-BAD\n\n"))
    with pytest.raises(InvalidLabel, match="line 2"):
        read_conll(io.StringIO("a N B-NP O\nb N B-NP NOPE\n\n"))


def test_read_conll_strict_rejects_dangling_inside():
    with pytest.raises(InvalidSequence):
        read_conll(io.StringIO("a N B-NP O\nb N B-NP I-PER\n\n"))


def test_read_conll_lenient_repairs():
    sents = read_conll(io.StringIO("a N B-NP O\nb N B-NP I-PER\n\n"),
                       strict=False)
    assert sents[0].gold_labels() == ["O", "B-PER"]


def test_read_conll_predicted_column():
    cols = ColumnMap(predicted=4)
    sents = read_conll(io.StringIO("a N B-NP B-PER B-LOC\n\n"), columns=cols)
    assert sents[0][0].predicted_label == "B-LOC"


def test_read_conll_iob1_ingest():
    text = "a N B-NP I-PER\nb N B-NP I-PER\nc N B-NP B-PER\n\n"
    sents = read_conll(io.StringIO(text), scheme="IOB1")
    assert sents[0].gold_labels() == ["B-PER", "I-PER", "B-PER"]


def test_read_conll_rejects_an_unknown_scheme():
    # a lowercase name is not IOB1; it must not read as IOB2 either
    for scheme in ("iob1", "IOB3", None):
        with pytest.raises(ValueError, match="unknown scheme"):
            read_conll(io.StringIO("a N B-NP O\n\n"), scheme=scheme)


def test_extract_spans_examples():
    assert extract_spans(["B-PER", "I-PER", "O", "B-LOC"]) == [
        EntitySpan("PER", 0, 1), EntitySpan("LOC", 3, 3)]
    assert extract_spans(["O", "O", "O"]) == []


def test_entity_span_is_an_immutable_triple():
    span = EntitySpan("PER", 0, 1)
    assert (span.entity_type, span.start, span.end) == ("PER", 0, 1)
    assert repr(span) == "EntitySpan(entity_type='PER', start=0, end=1)"
    with pytest.raises(AttributeError):
        span.start = 2
    # equal to, and hashed as, the span oracle's (type, start, end) tuples
    assert span == ("PER", 0, 1)
    assert {("PER", 0, 1)} == {span}
    labels = ["B-PER", "I-PER", "O", "B-LOC", "B-LOC", "I-LOC"]
    assert spans_to_labels(extract_spans(labels), len(labels)) == labels


def test_extract_spans_strict_errors():
    with pytest.raises(InvalidSequence):
        extract_spans(["O", "I-PER"])
    with pytest.raises(InvalidSequence):
        extract_spans(["B-LOC", "I-PER"])


def _brute_force_spans(labels):
    # independent quadratic enumeration straight from the definition
    found = []
    n = len(labels)
    for start in range(n):
        for end in range(start, n):
            if not labels[start].startswith("B-"):
                continue
            etype = labels[start][2:]
            if not all(labels[k] == "I-" + etype
                       for k in range(start + 1, end + 1)):
                continue
            if end + 1 < n and labels[end + 1] == "I-" + etype:
                continue
            found.append(EntitySpan(etype, start, end))
    return sorted(found, key=lambda s: s.start)


def test_extract_spans_exhaustive_single_type():
    alphabet = ["O", "B-PER", "I-PER"]
    for length in range(1, 7):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            try:
                validate_iob2(labels)
            except InvalidSequence:
                continue
            assert extract_spans(labels) == _brute_force_spans(labels)


def test_spans_roundtrip():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for combo in itertools.product(alphabet, repeat=5):
        labels = list(combo)
        try:
            validate_iob2(labels)
        except InvalidSequence:
            continue
        spans = extract_spans(labels)
        assert spans_to_labels(spans, len(labels)) == labels


def test_repair_iob_stated_rules():
    assert repair_iob(["O", "I-PER"]) == ["O", "B-PER"]
    assert repair_iob(["I-LOC", "I-PER"]) == ["B-LOC", "B-PER"]


def test_repair_iob_keeps_valid_sequences():
    valid = ["B-PER", "I-PER", "O", "B-LOC", "B-LOC", "I-LOC"]
    assert repair_iob(valid) == valid


def test_repair_iob_idempotent():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for combo in itertools.product(alphabet, repeat=4):
        once = repair_iob(list(combo))
        assert repair_iob(once) == once
        validate_iob2(once)


def test_convert_scheme_examples():
    assert convert_scheme(["I-PER", "I-PER"], "IOB1", "IOB2") == \
        ["B-PER", "I-PER"]
    assert convert_scheme(["O", "B-PER", "I-PER"], "IOB2", "IOB1") == \
        ["O", "I-PER", "I-PER"]
    # adjacent same-type entities need the B marker in IOB1 too
    assert convert_scheme(["B-PER", "B-PER"], "IOB2", "IOB1") == \
        ["I-PER", "B-PER"]
    assert convert_scheme(["I-PER", "B-PER"], "IOB1", "IOB2") == \
        ["B-PER", "B-PER"]


def test_convert_scheme_rejects_malformed():
    with pytest.raises(InvalidSequence):
        convert_scheme(["B-PER"], "IOB1", "IOB2")  # B- cannot open in IOB1
    with pytest.raises(ValueError):
        convert_scheme(["O"], "IOB3", "IOB2")


def test_convert_scheme_roundtrip_preserves_spans():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for length in range(1, 6):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            try:
                validate_iob2(labels)
            except InvalidSequence:
                continue
            iob1 = convert_scheme(labels, "IOB2", "IOB1")
            assert convert_scheme(iob1, "IOB1", "IOB2") == labels


def test_convert_scheme_iob1_roundtrip_and_refusal():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for length in range(1, 6):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            # IOB1: a B-X only separates two adjacent entities of type X
            valid = all(not lab.startswith("B-")
                        or (k > 0 and labels[k - 1][2:] == lab[2:])
                        for k, lab in enumerate(labels))
            if not valid:
                with pytest.raises(InvalidSequence):
                    convert_scheme(labels, "IOB1", "IOB2")
                continue
            iob2 = convert_scheme(labels, "IOB1", "IOB2")
            validate_iob2(iob2)
            assert convert_scheme(iob2, "IOB2", "IOB1") == labels


def test_invalid_sequence_messages():
    with pytest.raises(InvalidSequence, match=re.escape(
            "position 1: 'I-PER' has no valid predecessor "
            "(previous label was 'B-LOC')")):
        validate_iob2(["B-LOC", "I-PER"])
    with pytest.raises(InvalidSequence, match=re.escape(
            "position 0: 'I-PER' has no valid predecessor "
            "(previous label was 'O')")):
        extract_spans(["I-PER", "I-PER"])
    with pytest.raises(InvalidSequence, match=re.escape(
            "position 2: 'B-PER' is not preceded by an entity of the same "
            "type (IOB1)")):
        convert_scheme(["I-PER", "O", "B-PER"], "IOB1", "IOB2")


def _sentence(labels):
    return Sentence([Token(f"w{i}", gold_label=lab)
                     for i, lab in enumerate(labels)])


def test_stats_counts():
    sents = [_sentence(["B-PER", "I-PER", "B-LOC"]), _sentence(["O"])]
    cs = stats(sents)
    assert cs.entity_counts == {"PER": 1, "LOC": 1}
    assert cs.total_entities == 2
    assert cs.sentence_count == 2
    assert cs.token_count == 4
    assert stats(s for s in sents) == cs  # a one-shot iterable


def test_stats_empty():
    cs = stats([])
    assert cs.total_entities == 0
    assert cs.sentence_count == 0


def test_render_stats_contains_table_and_kv_lines():
    text = corpus.render_stats(stats([_sentence(["B-PER", "O"])]))
    assert "PER" in text
    assert "entities.PER=1" in text
    assert "sentences=1" in text
    assert "tokens=2" in text


def test_split_long_cuts_after_last_outside_token():
    labels = ["O", "B-PER", "I-PER", "O", "B-LOC", "I-LOC"]
    out = split_long([_sentence(labels)], max_len=5)
    assert [len(s) for s in out] == [4, 2]
    assert out[0].gold_labels() == ["O", "B-PER", "I-PER", "O"]
    assert out[1].gold_labels() == ["B-LOC", "I-LOC"]


def test_split_long_never_cuts_inside_entity():
    labels = ["B-PER"] + ["I-PER"] * 4 + ["B-LOC", "I-LOC"]
    out = split_long([_sentence(labels)], max_len=6)
    assert out[0].gold_labels() == ["B-PER"] + ["I-PER"] * 4
    assert out[1].gold_labels() == ["B-LOC", "I-LOC"]


def test_split_long_pieces_are_valid_iob2(toy_sentences):
    # an entity longer than the limit is cut, and its rest opens with B-X
    before = [list(s.tokens) for s in toy_sentences]
    for max_len in range(1, 10):
        pieces = split_long(toy_sentences, max_len)
        for piece in pieces:
            assert 1 <= len(piece) <= max_len
            validate_iob2(piece.gold_labels())
        assert [t.surface for p in pieces for t in p] == [
            t.surface for s in toy_sentences for t in s]
    assert [list(s.tokens) for s in toy_sentences] == before


def test_split_long_noop_below_limit():
    sent = _sentence(["O", "B-PER"])
    assert split_long([sent], max_len=150) == [sent]


@pytest.mark.parametrize("max_len", [0, -1])
def test_split_long_rejects_limit_below_one(max_len):
    # the empty corpus first: a check inside the sentence loop would leave
    # the one-token case to loop forever instead of failing
    with pytest.raises(ValueError, match="max_len"):
        split_long([], max_len=max_len)
    with pytest.raises(ValueError, match="max_len"):
        split_long([_sentence(["O"])], max_len=max_len)


def test_write_read_roundtrip():
    text = "a N B-NP B-PER\nb N I-NP I-PER\n\nc V B-VP O\n\n"
    sents = read_conll(io.StringIO(text))
    buf = io.StringIO()
    write_conll(sents, buf)
    assert buf.getvalue() == text
    again = read_conll(io.StringIO(buf.getvalue()))
    assert [s.gold_labels() for s in again] == [s.gold_labels() for s in sents]


@pytest.mark.parametrize("gold, expected", [
    (True, "a N B-NP B-PER B-LOC\nb V B-VP O O\n\n"),
    (False, "a N B-NP B-LOC\nb V B-VP O\n\n")], ids=["gold", "no-gold"])
def test_write_conll_gold_column_on_and_off(gold, expected):
    # the predicted column follows the tokens: written when they hold one
    sents = read_conll(io.StringIO("a N B-NP B-PER\nb V B-VP O\n\n"))
    for tok, label in zip(sents[0], ["B-LOC", "O"]):
        tok.predicted_label = label
    buf = io.StringIO()
    write_conll(sents, buf, gold=gold)
    assert buf.getvalue() == expected


def test_label_alphabet_default_has_nine_labels():
    labels = label_alphabet()
    assert len(labels) == 9
    assert labels[0] == "O"
    assert "B-PER" in labels and "I-MISC" in labels


def test_a_token_has_slots_and_no_instance_dict():
    token = corpus.Token("Hà_Nội", "Np", "B-NP", "B-LOC")
    assert not hasattr(token, "__dict__")
    assert corpus.Token.__slots__ == ("surface", "pos", "chunk", "gold_label",
                                      "predicted_label")
