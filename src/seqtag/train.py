"""Training loop and experiment harness: per-sentence SGD with global-norm
gradient clipping, shuffled epochs, dev-set early stopping keyed to phrase
F1 (best checkpoint returned, not the last), and an ablation driver that
retrains the tagger across feature/architecture variants.
"""

import copy
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import corpus, features, model
from .eval import score
from .numerics import derive_rng


# tokens per inference batch: sentences of length T run max(1, 512 // T)
# at a time
BATCH_TOKENS = 512


class EmptyCorpus(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    def __init__(self, epoch, sentence_index, loss):
        super().__init__(
            f"non-finite loss {loss} at epoch {epoch}, sentence {sentence_index}")
        self.epoch = epoch
        self.sentence_index = sentence_index


@dataclass
class TrainConfig:
    # batch-1 SGD on a mean-per-token loss needs a healthy step size; 0.05
    # provably stalls in the all-O basin on desk-scale corpora
    learning_rate: float = 0.3
    clip_norm: float = 5.0
    max_epochs: int = 100
    patience: int = 5
    seed: int = 42

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # nan fails both comparisons
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    dev_f1: float
    seconds: float


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)
    best_epoch: int = 0
    best_dev_f1: float = 0.0
    stop_reason: str = ""

    def to_text(self):
        """Line-oriented log. Wall-clock time is kept only in memory (the
        `seconds` field): the emitted file must be byte-identical across
        reruns with the same seed, and timing is not."""
        lines = ["epoch\tloss\tdev_f1"]
        for e in self.entries:
            lines.append(f"{e.epoch}\t{e.loss:.6f}\t{e.dev_f1:.4f}")
        lines.append(f"best_epoch={self.best_epoch}")
        lines.append(f"best_dev_f1={self.best_dev_f1:.4f}")
        lines.append(f"stop_reason={self.stop_reason}")
        lines.append(f"epochs_run={len(self.entries)}")
        return "\n".join(lines) + "\n"


def clip_gradients(grads, max_norm):
    """Scale the whole gradient block so its global L2 norm is at most
    max_norm; a no-op below the threshold and on all-zero gradients.
    `grads` maps names to arrays, which are scaled in place."""
    if not 0 < max_norm < np.inf:  # nan fails both comparisons
        raise ValueError(f"max_norm must be finite and > 0, got {max_norm}")
    total = 0.0
    for arr in grads.values():
        flat = arr.reshape(-1)
        total += float(flat @ flat)
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for arr in grads.values():
            arr *= factor
    return grads


def tag_corpus(tagger, extractor, sentences):
    """Predict labels for every sentence (argmax per token, then IOB repair)
    and store them on the tokens. Sentences of equal length run together,
    unpadded, as time-major batches of at most BATCH_TOKENS tokens."""
    by_length = {}
    for sent in sentences:
        if len(sent):
            by_length.setdefault(len(sent), []).append(sent)
    labels = tagger.config.labels
    for length, group in by_length.items():
        rows = max(1, BATCH_TOKENS // length)
        for start in range(0, len(group), rows):
            chunk = group[start:start + rows]
            batch = np.empty((length, len(chunk), extractor.input_dim))
            for b, sent in enumerate(chunk):
                extractor.assemble(sent, out=batch[:, b])
            for sent, indices in zip(chunk, model.predict_indices(tagger, batch)):
                predicted = corpus.repair_iob([labels[i] for i in indices])
                for tok, label in zip(sent, predicted):
                    tok.predicted_label = label
    return sentences


def evaluate_tagger(tagger, extractor, sentences):
    tag_corpus(tagger, extractor, sentences)
    return score(sentences)


def train(tagger, train_sentences, dev_sentences, extractor, config,
          progress=None):
    """Optimize `tagger` in place by updating its `theta`; returns `(best,
    log)`: the best checkpoint, a second Tagger with its own vector, and the
    TrainLog. ValueError names a parameter array that is no longer a view
    into `theta` (it would silently stop learning); an empty sentence
    (ValueError) or an unknown gold label (KeyError) fails before any update.

    Per epoch: visit sentences in a seeded shuffle order, assemble each
    one's inputs at its step (a run keeps no inputs, only the gold indices),
    clip its gradients to the global-norm budget, apply the SGD update,
    then measure dev phrase F1. Training stops when dev F1 has not improved
    for `patience` epochs (or at max_epochs) and the checkpoint with the
    best dev F1 is returned.
    """
    theta = tagger.theta
    for name, arr in tagger.param_items():
        if not np.shares_memory(arr, theta):
            raise ValueError(f"parameter {name} is not a view into "
                             f"tagger.theta; write into it, do not rebind it")
    train_sentences = list(train_sentences)
    if not train_sentences:
        raise EmptyCorpus("training set is empty")
    dev_sentences = list(dev_sentences)
    if not dev_sentences:
        raise EmptyCorpus("dev set is empty")
    label_index = {label: i for i, label in enumerate(tagger.config.labels)}
    golds = [[label_index[t.gold_label] for t in sent] for sent in train_sentences]
    if not all(golds):
        raise ValueError("training set holds an empty sentence")

    shuffle_rng = derive_rng(config.seed, 1)
    dropout_rng = derive_rng(config.seed, 2) if tagger.config.dropout > 0 else None
    # one gradient vector laid out like theta for the whole run, so the
    # update is two in-place vector ops; clipping takes its named blocks
    grad = np.zeros_like(theta)
    grads = dict(model.Tagger(tagger.config, theta=grad).param_items())
    best = model.Tagger(tagger.config, extra=copy.deepcopy(tagger.extra))

    log = TrainLog()
    best_f1 = -1.0
    since_improvement = 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        total_loss = 0.0
        for sent_idx in shuffle_rng.permutation(len(golds)):
            inputs = extractor.assemble(train_sentences[sent_idx])
            loss, _ = model.loss_and_gradients(tagger, inputs, golds[sent_idx],
                                               rng=dropout_rng, grad=grad)
            if not np.isfinite(loss):
                raise NonFiniteLoss(epoch, int(sent_idx), loss)
            clip_gradients(grads, config.clip_norm)
            grad *= config.learning_rate
            theta -= grad
            total_loss += loss
        epoch_loss = total_loss / len(golds)
        dev_f1 = evaluate_tagger(tagger, extractor, dev_sentences).overall.f1
        entry = EpochRecord(epoch, epoch_loss, dev_f1,
                            time.perf_counter() - started)
        log.entries.append(entry)
        if progress is not None:
            progress(entry)
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            log.best_epoch = epoch
            log.best_dev_f1 = dev_f1
            since_improvement = 0
            best.theta[:] = theta
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                log.stop_reason = f"early_stop(patience={config.patience})"
                break
    if not log.stop_reason:
        log.stop_reason = f"max_epochs({config.max_epochs})"
    return best, log


@dataclass
class ExperimentSetup:
    """Base configuration an ablation run varies around."""
    train_sentences: list
    dev_sentences: list
    score_sentences: list | None = None  # None: score on dev
    entity_types: tuple = corpus.DEFAULT_ENTITY_TYPES
    feature_set: tuple = (features.WORD,)
    embedding_mode: str = "random"
    embedding_dim: int = 300
    embeddings_path: str | None = None
    regex_rules: features.RegexRuleSet | None = None
    hidden: int = model.TaggerConfig.hidden
    layers: int = model.TaggerConfig.layers
    cell: str = model.TaggerConfig.cell
    bidirectional: bool = model.TaggerConfig.bidirectional
    dropout: float = model.TaggerConfig.dropout

    def tagger_config(self, input_dim):
        """The TaggerConfig of this setup over inputs of width `input_dim`."""
        return model.TaggerConfig(
            labels=corpus.label_alphabet(self.entity_types), input_dim=input_dim,
            hidden=self.hidden, layers=self.layers, cell=self.cell,
            bidirectional=self.bidirectional, dropout=self.dropout)


@dataclass
class AblationRow:
    name: str
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    error: str | None = None


def build_tagger(setup, seed):
    """A freshly initialized tagger for `setup` and the feature extractor
    fitted on its training corpus, both drawn from `seed`. The tagger's
    `extra` records the entity types and the feature pipeline, so a saved
    model can tag new text."""
    table = features.embedding_table(
        setup.embedding_mode, setup.embedding_dim, seed,
        vocab=features.first_seen(setup.train_sentences, "surface"),
        path=setup.embeddings_path)
    extractor = features.build_extractor(
        setup.train_sentences, features.FeatureConfig(tuple(setup.feature_set)),
        table, setup.regex_rules)
    extra = {"entity_types": list(setup.entity_types), **extractor.to_dict()}
    return model.init_params(setup.tagger_config(extractor.input_dim),
                             derive_rng(seed, 0), extra=extra), extractor


def load_tagger(path, embeddings=None):
    """The tagger saved at `path` and the extractor its pipeline record
    describes, a pretrained table's vectors read from `embeddings`. A model
    file fault raises model.load's errors, or BadConfigRecord for labels
    that are no entity types' alphabet, a pipeline record that builds no
    extractor, or one of another width; a missing or faulty vector file
    raises EmbeddingError, UnicodeDecodeError or OSError."""
    tagger = model.load(path)
    labels = tagger.config.labels
    try:  # an unparsable label leaves {None}, the alphabet of "O" alone
        types = {corpus.parse_label(label, None)[1] for label in labels}
    except corpus.CorpusError:
        types = {None}
    if labels != corpus.label_alphabet(types - {None}):
        raise model.BadConfigRecord("the model's labels are not the label "
                                    "alphabet of the entity types they name")
    try:
        extractor = features.FeatureExtractor.from_dict(tagger.extra,
                                                        embeddings)
    except (UnicodeDecodeError, features.EmbeddingError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise model.BadConfigRecord(f"no usable feature pipeline record "
                                    f"({type(exc).__name__}: {exc})") from None
    if extractor.input_dim != tagger.config.input_dim:
        raise model.BadConfigRecord(
            f"feature width {extractor.input_dim} does not match model "
            f"input width {tagger.config.input_dim}")
    return tagger, extractor


def _row_slug(name):
    return "".join(c if c.isalnum() else "_" for c in name).strip("_") or "row"


def ablate(setup, row_specs, train_config, save_dir=None):
    """Train one model per row spec, a `(name, overrides)` pair whose
    overrides are ExperimentSetup fields, with the same seed and
    TrainConfig throughout; a failing row is recorded with its error and
    the run continues. With save_dir, each row's best model is retained as
    <slug>.sqtg."""
    rows = []
    for name, overrides in row_specs:
        row_setup = replace(setup, **overrides)
        try:
            tagger, extractor = build_tagger(row_setup, train_config.seed)
            best, _ = train(tagger, row_setup.train_sentences,
                            row_setup.dev_sentences, extractor, train_config)
            report = evaluate_tagger(
                best, extractor,
                row_setup.score_sentences or row_setup.dev_sentences)
            if save_dir is not None:
                os.makedirs(save_dir, exist_ok=True)
                model.save(best, os.path.join(save_dir,
                                              _row_slug(name) + ".sqtg"))
            rows.append(AblationRow(name, report.overall.precision,
                                    report.overall.recall, report.overall.f1))
        except Exception as exc:  # keep going; the row records its failure
            rows.append(AblationRow(name, error=f"{type(exc).__name__}: {exc}"))
    return rows


W, P, C, K, R = (features.WORD, features.POS, features.CHUNK,
                 features.CASE, features.REGEX)

ABLATION_PRESETS = {
    "table3": [
        ("Skip-Gram", {"embedding_mode": "pretrained"}),
        ("Random", {"embedding_mode": "random"}),
        ("One-hot", {"embedding_mode": "onehot"}),
    ],
    "table4": [
        ("Bi-LSTM", {"bidirectional": True}),
        ("LSTM", {"bidirectional": False}),
    ],
    "table5": [
        ("Two layers", {"layers": 2}),
        ("One layer", {"layers": 1}),
    ],
    "table6": [
        ("Dropout = 0.5", {"dropout": 0.5}),
        ("Dropout = 0.0", {"dropout": 0.0}),
    ],
    "table7": [
        ("Word", {"feature_set": (W,)}),
        ("Word+POS", {"feature_set": (W, P)}),
        ("Word+Chunk", {"feature_set": (W, C)}),
        ("Word+Case", {"feature_set": (W, K)}),
        ("Word+Regex", {"feature_set": (W, R)}),
        ("Word+POS+Chunk+Case+Regex", {"feature_set": (W, P, C, K, R)}),
        ("Word+POS+Chunk+Regex", {"feature_set": (W, P, C, R)}),
    ],
}


def render_ablation(rows):
    width = max([len("Row")] + [len(r.name) for r in rows])
    lines = [f"{'Row':<{width}}  {'Pre.':>7} {'Rec.':>7} {'F1':>7}"]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.name:<{width}}  FAILED: {r.error}")
        else:
            lines.append(f"{r.name:<{width}}  {r.precision:7.2f} "
                         f"{r.recall:7.2f} {r.f1:7.2f}")
    return "\n".join(lines) + "\n"


def ablation_tsv(rows):
    lines = ["row\tprecision\trecall\tf1\tstatus"]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.name}\t\t\t\tfailed: {r.error}")
        else:
            lines.append(f"{r.name}\t{r.precision:.4f}\t{r.recall:.4f}"
                         f"\t{r.f1:.4f}\tok")
    return "\n".join(lines) + "\n"
