"""Training loop and experiment harness: per-sentence SGD with global-norm
gradient clipping, shuffled epochs, dev-set early stopping keyed to phrase
F1 (best checkpoint returned, not the last), and an ablation driver that
retrains the tagger across feature/architecture variants.
"""

import contextlib
import copy
import itertools
import math
import mmap
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
# tokens per forked tagging worker: a fork, pipe and join of a 70 MB
# process took 5.9 ms, as long as tagging 100 tokens (about 60 us each
# with a cold embedding table), so a share of 2,048 tokens spends about 5%
# of its time on them
WORKER_TOKENS = 2048
# work per training sentence, time steps x parameters of the "bwd" cells on
# average, from which a bidirectional tagger trains with a DirectionPeer.
# Below it the peer's four pipe round trips per step can cost more than the
# cells it takes over: at 4 to 6 steps and a hidden size of 8 to 32, a step
# ran up to 0.4 ms slower. From 1.0 M on every measured size gained, 0.6 ms
# of 2.6 ms at 6 steps, hidden 100 and input 16, so the 11.5 ms that the
# peer's fork and join took are repaid in about 20 steps; at the paper's
# size (22 steps, hidden 100, input 322) a step took 5.4 ms, not 9.3 ms
PEER_WORK = 1_000_000
# seconds a DirectionPeer's waiting side polls its pipe before it blocks: a
# round trip between processes blocked in their reads took 46-61 us on a
# 2-vCPU host, and a step makes four; polling cut a paper-size step from
# 6.3 to 5.4 ms. Most commands and replies come within the 2 ms or so that
# a step's clip, update and next assembly take at that size
PEER_POLL_S = 0.002


class EmptyCorpus(ValueError):
    pass


class WorkerFailed(RuntimeError):
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
    unpadded, as time-major batches of at most BATCH_TOKENS tokens. An input
    of at least 2 * WORKER_TOKENS tokens is split into shares of whole
    batches, balanced by token count, one per CPU the process may run on;
    this process tags share 0 and a forked worker each other share. A batch
    and its labels do not depend on the share it falls in, so the labels
    are the same for any number of workers. WorkerFailed: a worker could
    not start, died or raised."""
    by_length = {}
    for sent in sentences:
        if len(sent):
            by_length.setdefault(len(sent), []).append(sent)
    batches = []
    for length, group in by_length.items():
        rows = max(1, BATCH_TOKENS // length)
        batches += [group[start:start + rows]
                    for start in range(0, len(group), rows)]
    count = _worker_count(batches)
    if count == 1:
        shares, share_labels = [batches], [_tag_share(tagger, extractor, batches)]
    else:
        shares = _token_shares(batches, count)
        share_labels = _tag_in_workers(tagger, extractor, shares)
    for share, labels in zip(shares, share_labels):
        for sent, predicted in zip(itertools.chain.from_iterable(share), labels):
            for tok, label in zip(sent, predicted):
                tok.predicted_label = label
    return sentences


def _tokens(batch):
    return len(batch) * len(batch[0])


def _worker_count(batches):
    """One share per WORKER_TOKENS tokens of `batches`, at most one per
    batch and one per CPU that _fork_cpus allows."""
    tokens = sum(map(_tokens, batches))
    return max(1, min(_fork_cpus(), len(batches), tokens // WORKER_TOKENS))


def _fork_cpus():
    """The CPUs in the affinity mask, or 1, for no fork, while the process
    runs a second OS thread or where /proc/self/task or the mask cannot be
    read. A fork copies only the calling thread, so a lock another thread
    holds stays held; and the threads of a BLAS pool, which exists from
    `import numpy` on unless OPENBLAS_NUM_THREADS=1, spin against the
    forked process (a forked `tag` ran about twice as long as the serial
    one on 2 CPUs)."""
    try:
        if _os_threads() != 1:
            return 1
        return len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        return 1


def _os_threads():
    return len(os.listdir("/proc/self/task"))


def _token_shares(batches, count):
    """`count` lists of batches with near-equal token counts: each batch,
    the largest first, goes to the share that holds the fewest tokens, the
    first of them on a tie."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for batch in sorted(batches, key=_tokens, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(batch)
        loads[k] += _tokens(batch)
    return shares


def _tag_share(tagger, extractor, batches):
    """The repaired labels of each sentence of `batches`, in order, each
    batch tagged when its first sentence's labels are asked for."""
    labels = tagger.config.labels
    for chunk in batches:
        batch = np.empty((len(chunk[0]), len(chunk), extractor.input_dim))
        for b, sent in enumerate(chunk):
            extractor.assemble(sent, out=batch[:, b])
        for indices in model.predict_indices(tagger, batch):
            yield corpus.repair_iob([labels[i] for i in indices])


def _share_worker(connection, tagger, extractor, batches):
    """A tagging worker's body: send the labels of its share."""
    connection.send((True, list(_tag_share(tagger, extractor, batches))))


def _tag_in_workers(tagger, extractor, shares):
    """The labels of every share: share 0 tagged here, every other share in
    a worker forked for it. If anything fails, every worker is stopped and
    joined before the error propagates."""
    with contextlib.ExitStack() as stack:
        workers = [stack.enter_context(_Worker(
            "tagging", _share_worker, tagger, extractor, batches))
            for batches in shares[1:]]
        share_labels = [list(_tag_share(tagger, extractor, shares[0]))]
        return share_labels + [worker.receive() for worker in workers]


class _Worker:
    """A process forked with multiprocessing's fork context that runs
    `body(connection, *args)` on its end of a pipe; the body replies `(True,
    value)` to each message it answers. The process closes its copy of the
    parent's end first, so that a read sees EOF, and a write fails, once the
    parent is gone. A body that raises replies `(False, "Type: message")`,
    a read past the parent's last message ends the body, and every exit is
    an os._exit, with no traceback. WorkerFailed, which names `what` the
    worker does: it cannot start, or it exited or raised before a reply.
    Used as a context manager, it is terminated on an error, and joined, on
    leaving."""

    def __init__(self, what, body, *args):
        import multiprocessing  # here, not at import: it costs every command

        self._what = what
        context = multiprocessing.get_context("fork")
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main, daemon=True,
            args=(child, self._connection, body, args))
        try:
            self._process.start()
        except OSError as exc:
            self._connection.close()
            raise WorkerFailed(f"cannot start a {what} worker: "
                               f"{exc.strerror}") from None
        finally:
            child.close()

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        # on success the worker has replied, or exits at the EOF of the pipe
        if kind is not None:
            self._process.terminate()
        self._connection.close()
        self._process.join()

    def send(self, message):
        self._call(self._connection.send, message)

    def receive(self):
        """The worker's next reply value, read with _receive."""
        ok, reply = self._call(_receive, self._connection)
        if not ok:
            raise WorkerFailed(f"a {self._what} worker failed: {reply}")
        return reply

    def _call(self, method, *args):
        try:
            return method(*args)
        except (EOFError, OSError):
            self._process.join()
            raise WorkerFailed(f"a {self._what} worker exited with code "
                               f"{self._process.exitcode}") from None


def _receive(connection):
    """The next message on `connection`, polled for up to PEER_POLL_S before
    a blocking read."""
    deadline = time.perf_counter() + PEER_POLL_S
    while not connection.poll() and time.perf_counter() < deadline:
        pass
    return connection.recv()


def _worker_main(connection, parent_end, body, args):
    """A _Worker's process: exit code 0 once `body` returns or reads past
    the parent's last message, 1 on anything else."""
    code = 1
    try:
        parent_end.close()
        body(connection, *args)
        code = 0
    except EOFError:
        code = 0
    except Exception as exc:
        connection.send((False, f"{type(exc).__name__}: {exc}"))
    finally:
        os._exit(code)


class DirectionPeer(_Worker):
    """A forked worker that runs the "bwd" cell of every layer of a
    bidirectional tagger, forward and BPTT, for model.loss_and_gradients,
    while the calling process runs the "fwd" cells: the two directions of a
    layer share nothing until their states are concatenated.

    `theta`, a copy of the tagger's, and `grad` are vectors in one
    anonymous shared mapping made before the fork: the peer reads its cells
    from `theta` and writes their blocks of `grad`. A layer's inputs, or the
    gradient at its "bwd" states, reach the peer, and the states or input
    gradients come back, through two buffers of `max_len` rows in the same
    mapping; the pipe carries only commands and replies, and each side
    polls it for up to PEER_POLL_S before it blocks. The peer copies its
    inputs out of the buffer, since its cache holds them until the layer's
    BPTT."""

    def __init__(self, tagger, max_len):
        config = tagger.config
        if not config.bidirectional:
            raise ValueError("a direction peer needs a bidirectional tagger")
        n = len(tagger.theta)
        rows = max_len * max(config.input_dim, config.layer_output_dim)
        flat = np.frombuffer(mmap.mmap(-1, 8 * (2 * n + 2 * rows)))
        self.theta, self.grad = flat[:n], flat[n:2 * n]
        self._inbox, self._outbox = (flat[2 * n:2 * n + rows],
                                     flat[2 * n + rows:])
        self.theta[:] = tagger.theta
        taggers = [model.Tagger(config, theta=vector)
                   for vector in (self.theta, self.grad)]
        super().__init__("training", _peer_main, *taggers, self._inbox,
                         self._outbox)

    def layer(self, l):
        """The peer of layer l, as model.loss_and_gradients uses it."""
        return _PeerLayer(self, l)

    def _start(self, command, array):
        """Put `array` in the inbox and send the peer `command` with its
        shape."""
        self._inbox[:array.size].reshape(array.shape)[...] = array
        self.send(command + (array.shape,))

    def _result(self):
        """The peer's reply to the last command, a view of the outbox."""
        shape = self.receive()
        if shape is None:
            return None
        return self._outbox[:math.prod(shape)].reshape(shape)


class _PeerLayer:
    def __init__(self, peer, l):
        self.peer, self.l = peer, l

    def run(self, inputs):
        self.peer._start(("run", self.l, True), inputs)

    def backprop(self, dstates, input_grads):
        self.peer._start(("backprop", self.l, input_grads), dstates)

    def result(self):
        return self.peer._result()


def _peer_main(connection, tagger, dtagger, inbox, outbox):
    """A direction peer's body. For each (op, layer, input_grads, shape)
    command it runs (op "run") or backpropagates the layer's "bwd" cell on
    the inbox, writes the states or input gradients to the outbox and
    replies with their shape, or None."""
    caches = {}
    while True:
        op, l, input_grads, shape = _receive(connection)
        data = inbox[:math.prod(shape)].reshape(shape)
        cell = tagger.layers[l]["bwd"]
        if op == "run":
            out, caches[l] = model._run_direction("bwd", cell, data.copy(),
                                                  bptt=True)
        else:
            out = model._backprop_direction("bwd", cell, caches.pop(l), data,
                                            dtagger.layers[l]["bwd"],
                                            input_grads)
        if out is not None:
            outbox[:out.size].reshape(out.shape)[...] = out
        connection.send((True, None if out is None else out.shape))


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

    A bidirectional tagger whose training sentences average PEER_WORK time
    steps x "bwd" cell parameters trains with a DirectionPeer where
    _fork_cpus allows 2 CPUs or more, on a copy of `theta` in the peer's
    shared mapping, which is written back into `theta` at the end, whatever
    the outcome. The bits are those of a serial run. WorkerFailed: the
    peer, or a dev evaluation's tagging worker, could not start, died or
    raised.
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
    data = (train_sentences, dev_sentences, golds, extractor, config, progress)
    bwd = sum(a.size for name, a in tagger.param_items() if ".bwd." in name)
    if not (bwd and sum(map(len, golds)) * bwd >= PEER_WORK * len(golds)
            and _fork_cpus() >= 2):
        return _sgd(tagger, np.zeros_like(theta), None, *data)
    with DirectionPeer(tagger, max(map(len, golds))) as peer:
        try:
            shared = model.Tagger(tagger.config, tagger.extra, theta=peer.theta)
            return _sgd(shared, peer.grad, peer, *data)
        finally:
            theta[:] = peer.theta


def _sgd(tagger, grad, peer, train_sentences, dev_sentences, golds, extractor,
         config, progress):
    """train's epochs on `tagger`, with `grad` as the gradient vector and
    `peer` (or None) for loss_and_gradients."""
    theta = tagger.theta
    shuffle_rng = derive_rng(config.seed, 1)
    dropout_rng = derive_rng(config.seed, 2) if tagger.config.dropout > 0 else None
    # one gradient vector laid out like theta for the whole run, so the
    # update is two in-place vector ops; clipping takes its named blocks
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
                                               rng=dropout_rng, grad=grad,
                                               peer=peer)
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
