"""Built-in verification suites: the analytic-vs-numeric gradient check and
the scorer-vs-brute-force oracle comparison. The CLI selfcheck command runs
these; the acceptance tests call them directly.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .corpus import DEFAULT_ENTITY_TYPES, Sentence, Token, repair_iob
from .eval import score
from .numerics import derive_rng, finite_diff_grad, gradient_relative_error

# the default size of each check: seeds of the gradient check, and random
# (gold, predicted) sequence pairs of the scorer check
GRADIENT_SEEDS = 20
SCORER_PAIRS = 1000
# the strength of each check: the worst relative error the gradient check
# passes, and the longest random sequence of the scorer check
GRADIENT_TOLERANCE = 1e-4
MAX_PAIR_LEN = 12


@dataclass
class GradientCheckResult:
    worst_error: float

    @property
    def passed(self):
        return self.worst_error < GRADIENT_TOLERANCE


def check_gradients(seeds=range(GRADIENT_SEEDS), hidden=8, input_dim=10,
                    seq_len=5, n_labels=4, layers=2, bidirectional=True,
                    cell="lstm", dropout=0.0, corrupt=False):
    """Compare backpropagation gradients against central finite differences
    (numerics.FD_EPSILON) on small random models; returns the worst relative
    error over all seeds and parameters.

    With dropout > 0 the masks are frozen by re-deriving the same RNG for
    every loss evaluation, so the finite differences probe the identical
    stochastic function. Every element of the parameter vector `theta` is
    probed, one stretch (a cell's parameters, or the projection's) at a
    time: each evaluation builds a row tagger on a block of perturbed copies
    of the stretch and runs it through the production sentence_loss, so the
    cells before the stretch run once per block.
    `corrupt` deliberately perturbs one analytic gradient entry (negative
    control: the check must then fail).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the gradient check needs at least one seed")
    labels = [f"L{i}" for i in range(n_labels)]
    worst = 0.0
    for seed in seeds:
        config = model.TaggerConfig(labels=labels, input_dim=input_dim,
                                    hidden=hidden, layers=layers, cell=cell,
                                    bidirectional=bidirectional,
                                    dropout=dropout)
        tagger = model.init_params(config, derive_rng(seed, 100))
        data_rng = derive_rng(seed, 101)
        inputs = data_rng.uniform(-1, 1, size=(seq_len, input_dim))
        gold = [int(g) for g in data_rng.integers(0, n_labels, size=seq_len)]

        def dropout_rng():
            return derive_rng(seed, 102) if dropout > 0 else None

        _, analytic = model.loss_and_gradients(tagger, inputs, gold,
                                               rng=dropout_rng())
        if corrupt:
            analytic[0] += 1e-2
        numeric = np.empty_like(analytic)
        for start, stop in tagger.stretches:
            def loss(block, start=start):
                rows = model.Tagger(config, theta=tagger.theta,
                                    rows=(start, block))
                return model.sentence_loss(rows, inputs, gold, rng=dropout_rng())

            numeric[start:stop] = finite_diff_grad(loss, tagger.theta[start:stop])
        err = gradient_relative_error(analytic, numeric)
        worst = float(np.maximum(worst, err))  # unlike max(), keeps a NaN
    return GradientCheckResult(worst)


def enumerate_spans(labels):
    """Independent span oracle: the (type, start, end) triples that meet the
    definition of a maximal B-X (I-X)* run. From each B-X start, `end` runs
    forward while the labels in (start, end] are all I-X, and the triple is
    kept where the next label is not I-X. Extension stops at the first label
    that is not I-X, since every longer triple holds it inside and fails the
    definition, so the oracle is quadratic. Shares no code with the
    extraction path it cross-checks."""
    spans = set()
    n = len(labels)
    for start, label in enumerate(labels):
        if not label.startswith("B-"):
            continue
        etype = label[2:]
        i = "I-" + etype
        for end in range(start, n):
            if end > start and labels[end] != i:
                break
            if end + 1 == n or labels[end + 1] != i:
                spans.add((etype, start, end))
    return spans


def oracle_score(pairs):
    """Brute-force scorer over (gold_labels, pred_labels) pairs: span sets
    from enumerate_spans, correct = set intersection, counted per type."""
    per_type = {}
    overall = {"gold": 0, "predicted": 0, "correct": 0}

    def bucket(etype):
        return per_type.setdefault(etype, {"gold": 0, "predicted": 0,
                                           "correct": 0})

    for gold_labels, pred_labels in pairs:
        gold_spans = enumerate_spans(gold_labels)
        pred_spans = enumerate_spans(pred_labels)
        for etype, _, _ in gold_spans:
            bucket(etype)["gold"] += 1
            overall["gold"] += 1
        for span in pred_spans:
            bucket(span[0])["predicted"] += 1
            overall["predicted"] += 1
            if span in gold_spans:
                bucket(span[0])["correct"] += 1
                overall["correct"] += 1
    return per_type, overall


def random_label_pairs(n_pairs, seed, entity_types=DEFAULT_ENTITY_TYPES):
    """Random valid IOB2 (gold, predicted) sequence pairs of 1 to
    MAX_PAIR_LEN labels: uniform draws over the label alphabet, then
    repaired."""
    alphabet = ["O"]
    for etype in entity_types:
        alphabet += ["B-" + etype, "I-" + etype]
    rng = derive_rng(seed, 103)
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(1, MAX_PAIR_LEN + 1))
        gold = repair_iob([alphabet[i] for i in
                           rng.integers(0, len(alphabet), size=length)])
        pred = repair_iob([alphabet[i] for i in
                           rng.integers(0, len(alphabet), size=length)])
        pairs.append((gold, pred))
    return pairs


def check_scorer(n_pairs=SCORER_PAIRS, seed=7,
                 entity_types=DEFAULT_ENTITY_TYPES):
    """Score random pairs, as one corpus, through the production scorer and
    the brute-force oracle, and count their tokens and equal labels directly;
    returns the list of discrepancies (empty means equivalent)."""
    pairs = random_label_pairs(n_pairs, seed, entity_types)
    sentences = []
    for gold, pred in pairs:
        tokens = [Token(surface=f"w{k}", gold_label=g, predicted_label=p)
                  for k, (g, p) in enumerate(zip(gold, pred))]
        sentences.append(Sentence(tokens))
    report = score(sentences)
    oracle_types, oracle_overall = oracle_score(pairs)

    diffs = []
    for field, want in (
            ("token_count", sum(len(gold) for gold, _ in pairs)),
            ("token_correct", sum(g == p for gold, pred in pairs
                                  for g, p in zip(gold, pred)))):
        got = getattr(report, field)
        if got != want:
            diffs.append(f"{field}: scorer {got} != oracle {want}")
    for field in ("gold", "predicted", "correct"):
        got = getattr(report.overall, field)
        want = oracle_overall[field]
        if got != want:
            diffs.append(f"overall.{field}: scorer {got} != oracle {want}")
    all_types = set(report.per_type) | set(oracle_types)
    for etype in sorted(all_types):
        got = report.per_type.get(etype)
        want = oracle_types.get(etype, {"gold": 0, "predicted": 0, "correct": 0})
        for field in ("gold", "predicted", "correct"):
            g = getattr(got, field) if got else 0
            if g != want[field]:
                diffs.append(f"{etype}.{field}: scorer {g} != oracle {want[field]}")
    return diffs


# the pathology's sequence length, seed and RNN spectral radius: the
# exploding-gradient setting of Pascanu, Mikolov & Bengio (arXiv 1211.5063)
PATHOLOGY_LEN, PATHOLOGY_SEED, PATHOLOGY_RADIUS = 132, 5, 1.4


def gradient_extremeness(cell_params):
    """How unbalanced the input gradients of a single recurrent pass are:
    run the cell over a random sequence, push a unit gradient into the last
    hidden state, and compare gradient norms at the first and last inputs.
    Returns max(ratio, 1/ratio) so both exploding and vanishing register as
    large."""
    # inputs small enough that even growth by the spectral radius per step
    # cannot reach tanh saturation within PATHOLOGY_LEN steps; the
    # recurrence's own linearized dynamics then dominate the gradient product
    rng = derive_rng(PATHOLOGY_SEED, 104)
    inputs = rng.normal(0.0, 1e-30, size=(PATHOLOGY_LEN, cell_params.input_dim))
    states, cache = model._run_cell(cell_params, inputs, bptt=True)
    dstates = np.zeros_like(states)
    dstates[-1] = 1.0
    dparams = model.CellParams(cell_params.hidden, cell_params.input_dim,
                               cell_params.kind)
    dx = model._backprop_cell(cell_params, cache, dstates, dparams)
    first = float(np.linalg.norm(dx[0]))
    last = float(np.linalg.norm(dx[-1]))
    if first == 0.0 or last == 0.0:
        return np.inf
    ratio = first / last
    return max(ratio, 1.0 / ratio)


def compare_recurrence_pathology():
    """Exploding/vanishing comparison on matched shapes: a vanilla RNN with
    recurrent weights scaled past spectral radius 1 versus an LSTM with a
    saturated forget gate. Returns (rnn_extremeness, lstm_extremeness)."""
    hidden, input_dim = 8, 8
    rng = derive_rng(PATHOLOGY_SEED, 105)
    rnn = model.CellParams(hidden, input_dim, "rnn")
    w = rng.normal(0.0, 1.0, size=(hidden, hidden))
    radius = max(abs(np.linalg.eigvals(w)))
    rnn.W[...] = w * (PATHOLOGY_RADIUS / radius)
    rnn.U[...] = rng.normal(0.0, 0.5, size=rnn.U.shape)

    # well-conditioned LSTM: saturated forget gate carries the memory, and
    # the hidden-side weights are damped below the critical point so the
    # gate coupling does not itself amplify over 132 steps
    lstm = model.CellParams.init(derive_rng(PATHOLOGY_SEED, 106), hidden,
                                 input_dim, forget_bias=20.0)
    lstm.W *= 0.3
    return gradient_extremeness(rnn), gradient_extremeness(lstm)
