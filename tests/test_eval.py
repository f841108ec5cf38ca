import hashlib
import itertools
import json

import pytest

import oracle
from seqtag import selfcheck
from seqtag.corpus import Sentence, Token
from seqtag.eval import (MissingPredictions, f1, render, score,
                         score_conll_lines)
from seqtag.selfcheck import (check_scorer, enumerate_spans, oracle_score,
                              random_label_pairs)


def _sent(gold, pred):
    return Sentence([Token(f"w{i}", gold_label=g, predicted_label=p)
                     for i, (g, p) in enumerate(zip(gold, pred))])


def test_f1_known_value_pairs():
    assert f1(91.09, 93.03) == pytest.approx(92.05, abs=0.01)
    assert f1(75.88, 72.26) == pytest.approx(74.02, abs=0.01)


def test_f1_zero_cases():
    assert f1(50.0, 0.0) == 0.0
    assert f1(0.0, 0.0) == 0.0
    assert f1(0.0, 80.0) == 0.0


def test_f1_between_min_and_max():
    import itertools
    for p, r in itertools.product([10.0, 35.0, 80.0, 99.0], repeat=2):
        v = f1(p, r)
        assert min(p, r) <= v + 1e-12
        assert v <= max(p, r) + 1e-12


def test_score_perfect_predictions():
    report = score([_sent(["B-PER", "I-PER", "O", "B-LOC"],
                          ["B-PER", "I-PER", "O", "B-LOC"])])
    for etype in ("PER", "LOC"):
        s = report.per_type[etype]
        assert (s.precision, s.recall, s.f1) == (100.0, 100.0, 100.0)
    assert report.overall.f1 == 100.0
    assert report.token_accuracy == 100.0


def test_score_boundary_error_gets_no_credit():
    report = score([_sent(["B-PER", "I-PER"], ["B-PER", "O"])])
    assert report.overall.correct == 0
    assert report.per_type["PER"].precision == 0.0
    assert report.per_type["PER"].recall == 0.0


def test_score_swap_swaps_precision_and_recall():
    gold = ["B-PER", "O", "B-LOC", "I-LOC", "O"]
    pred = ["B-PER", "B-PER", "O", "B-LOC", "O"]
    fwd = score([_sent(gold, pred)])
    rev = score([_sent(pred, gold)])
    assert fwd.overall.precision == rev.overall.recall
    assert fwd.overall.recall == rev.overall.precision


def test_score_empty_sentence_leaves_report_unchanged():
    base = score([_sent(["B-PER"], ["B-PER"])])
    padded = score([_sent(["B-PER"], ["B-PER"]), _sent(["O", "O"], ["O", "O"])])
    assert base.overall.gold == padded.overall.gold
    assert base.overall.predicted == padded.overall.predicted
    assert base.overall.correct == padded.overall.correct
    assert base.per_type.keys() == padded.per_type.keys()


def test_score_requires_predictions():
    sent = Sentence([Token("w", gold_label="O")])
    with pytest.raises(MissingPredictions):
        score([sent])


def test_score_repairs_model_output():
    # dangling I- from a per-token classifier still scores as a span
    report = score([_sent(["B-PER", "I-PER"], ["I-PER", "I-PER"])])
    assert report.per_type["PER"].predicted == 1
    assert report.per_type["PER"].correct == 1


def test_score_type_filter_drops_both_sides():
    gold = ["B-MISC", "O", "B-PER"]
    pred = ["B-MISC", "O", "O"]
    unfiltered = score([_sent(gold, pred)])
    filtered = score([_sent(gold, pred)], types={"PER", "LOC", "ORG"})
    assert unfiltered.overall.correct == 1
    assert filtered.overall.correct == 0
    assert filtered.overall.predicted == 0
    assert filtered.overall.gold == 1  # only the PER entity remains
    assert "MISC" not in filtered.per_type


def test_overall_counts_sum_per_type():
    gold = ["B-PER", "O", "B-LOC", "O", "B-MISC"]
    pred = ["B-PER", "O", "B-ORG", "O", "B-MISC"]
    report = score([_sent(gold, pred)])
    assert report.overall.gold == sum(s.gold for s in report.per_type.values())
    assert report.overall.predicted == sum(
        s.predicted for s in report.per_type.values())
    assert report.overall.correct == sum(
        s.correct for s in report.per_type.values())


def test_render_empty_corpus():
    text = render(score([]))
    assert "ALL" in text
    assert "0.00" in text


def test_render_one_entity():
    text = render(score([_sent(["B-PER"], ["B-PER"])]))
    line = [l for l in text.splitlines() if l.startswith("PER")][0]
    assert line.count("100.00") == 3


def test_render_byte_stable():
    report = score([_sent(["B-PER", "O"], ["B-PER", "B-LOC"])])
    assert render(report) == render(report)


def test_score_conll_lines_convention():
    lines = [
        "word1 X B-PER B-PER\n",
        "word2 X O B-LOC\n",
        "\n",
        "word3 X B-LOC B-LOC\n",
        "\n",
        "word4\tX\tB-PER \tB-PER\n",  # spaces around a tab field are dropped
    ]
    report = score_conll_lines(lines)
    assert report.per_type["PER"].correct == 2
    assert report.per_type["LOC"].gold == 1
    assert report.per_type["LOC"].predicted == 2


def test_score_conll_lines_rejects_short_rows():
    with pytest.raises(ValueError, match="line 1"):
        score_conll_lines(["justone\n"])


def test_enumerate_spans_oracle_definition():
    assert enumerate_spans(["B-PER", "I-PER", "O", "B-LOC"]) == {
        ("PER", 0, 1), ("LOC", 3, 3)}
    assert enumerate_spans(["O", "O"]) == set()


def test_enumerate_spans_matches_the_triple_by_triple_reference():
    # every sequence up to length 6, valid IOB2 or not
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    checked = 0
    for length in range(7):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            assert enumerate_spans(labels) == \
                oracle.enumerate_spans_by_triple(labels), labels
            checked += 1
    assert checked == 19531


def test_scorer_check_pairs_are_pinned():
    # the pairs C3 scores; a faster draw or repair must not change them
    pairs = random_label_pairs(1000, 7)
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == \
        "5e43ca55a37216ba4c725cadb9627fde8875f739ab5cb63f1ec9a495e1ce5d3d"


def test_scorer_check_counts_tokens_directly(monkeypatch):
    def miscounting_score(sentences):
        report = score(sentences)
        report.token_count += 1
        report.token_correct -= 1
        return report

    monkeypatch.setattr(selfcheck, "score", miscounting_score)
    diffs = check_scorer(n_pairs=20)
    assert len(diffs) == 2
    assert diffs[0].startswith("token_count: scorer ")
    assert diffs[1].startswith("token_correct: scorer ")


def test_oracle_score_counts():
    pairs = [(["B-PER", "O"], ["B-PER", "B-LOC"])]
    per_type, overall = oracle_score(pairs)
    assert overall == {"gold": 1, "predicted": 2, "correct": 1}
    assert per_type["LOC"]["predicted"] == 1


def test_scorer_agrees_with_oracle_on_random_pairs():
    assert check_scorer(n_pairs=200, seed=3) == []


def test_scorer_agrees_with_oracle_over_a_non_default_type_set():
    # DATE is outside the default set; neither the pairs' repair nor the
    # scorer checks a type set
    assert check_scorer(n_pairs=200, entity_types=("DATE", "PER")) == []
