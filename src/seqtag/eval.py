"""Phrase-level scoring compatible with the CoNLL 2003 evaluation
convention: a predicted entity counts as correct only when a gold entity
with the same type and the exact same token boundaries exists.

Percentages are kept at full precision internally and rounded only when a
report is rendered.
"""

from dataclasses import dataclass, field
from operator import eq

from .corpus import ColumnMap, extract_spans, read_conll, repair_iob


class MissingPredictions(ValueError):
    """A token reached the scorer without a predicted label."""


def f1(precision, recall):
    """Harmonic mean of precision and recall (percent in, percent out);
    defined as 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class TypeScore:
    gold: int = 0
    predicted: int = 0
    correct: int = 0

    @property
    def precision(self):
        return 100.0 * self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self):
        return 100.0 * self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self):
        return f1(self.precision, self.recall)


@dataclass
class ScoreReport:
    per_type: dict = field(default_factory=dict)
    overall: TypeScore = field(default_factory=TypeScore)
    token_count: int = 0
    token_correct: int = 0

    @property
    def token_accuracy(self):
        return 100.0 * self.token_correct / self.token_count if self.token_count else 0.0


def _relabel_outside(labels, keep_types):
    out = []
    for label in labels:
        if label == "O" or label.split("-", 1)[1] in keep_types:
            out.append(label)
        else:
            out.append("O")
    return out


def _type_score(report, entity_type):
    """The TypeScore of `entity_type` in `report`, added on first sight."""
    entry = report.per_type.get(entity_type)
    if entry is None:
        entry = report.per_type[entity_type] = TypeScore()
    return entry


def score(sentences, types=None):
    """Score predicted against gold labels over a corpus.

    Predictions are repaired to valid IOB2 before span extraction (the
    repair is the identity on already-valid sequences). `types`, when given,
    restricts scoring to those entity types: excluded types are relabeled to
    O on both the gold and predicted side before counting.
    """
    report = ScoreReport()
    for sent in sentences:
        gold_labels = sent.gold_labels()
        pred_labels = sent.predicted_labels()
        if None in pred_labels:
            raise MissingPredictions(
                "a token has no predicted label; tag the corpus first")
        pred_labels = repair_iob(pred_labels)
        if types is not None:
            gold_labels = _relabel_outside(gold_labels, types)
            pred_labels = _relabel_outside(pred_labels, types)
        report.token_count += len(gold_labels)
        report.token_correct += sum(map(eq, gold_labels, pred_labels))
        gold_spans = set(extract_spans(gold_labels))
        pred_spans = set(extract_spans(pred_labels))
        for span in gold_spans:
            entry = _type_score(report, span.entity_type)
            entry.gold += 1
            report.overall.gold += 1
        for span in pred_spans:
            entry = _type_score(report, span.entity_type)
            entry.predicted += 1
            report.overall.predicted += 1
            if span in gold_spans:
                entry.correct += 1
                report.overall.correct += 1
    return report


def render(report):
    """conlleval-style text: one row per entity type (alphabetical), then an
    ALL row; percentages with two decimals."""
    lines = [
        f"processed {report.token_count} tokens with {report.overall.gold} "
        f"phrases; found: {report.overall.predicted} phrases; "
        f"correct: {report.overall.correct}.",
        f"accuracy: {report.token_accuracy:6.2f}%  (per token)",
        f"{'type':<8} {'prec.':>8} {'recall':>8} {'F1':>8} {'gold':>6} "
        f"{'found':>6} {'corr.':>6}",
    ]
    for etype in sorted(report.per_type):
        s = report.per_type[etype]
        lines.append(f"{etype:<8} {s.precision:8.2f} {s.recall:8.2f} "
                     f"{s.f1:8.2f} {s.gold:6d} {s.predicted:6d} {s.correct:6d}")
    s = report.overall
    lines.append(f"{'ALL':<8} {s.precision:8.2f} {s.recall:8.2f} "
                 f"{s.f1:8.2f} {s.gold:6d} {s.predicted:6d} {s.correct:6d}")
    return "\n".join(lines) + "\n"


def score_conll_lines(source, types=None):
    """Alternative entry point following the conlleval input convention: the
    gold label second-to-last column and the predicted label last; blank
    lines separate sentences. `source` is lines or a file path. Gold labels
    of any entity type are repaired to IOB2, as score() repairs them."""
    sentences = read_conll(source, ColumnMap(pos=None, chunk=None, label=-2,
                                             predicted=-1),
                           entity_types=None, strict=False)
    return score(sentences, types=types)
