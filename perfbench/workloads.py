"""The benchmark's workloads. Each builds its inputs from the workload seed
in `setup` and then repeats one checked operation in `run_op`:

- train-paper: one `train.train` run at the paper defaults (2-layer
  Bi-LSTM, H=100, 300-d random word vectors plus POS, chunk, case and regex
  features, dropout 0.5, lr 0.3, clip 5) for a fixed number of epochs.
  Training is where the BPTT, forward, clip and update hot path shows.
- tag-bulk: `seqtag tag` (via `cli.main`) over a generated CoNLL file with a
  saved, freshly initialised model of the same architecture. Inference only;
  the large Zipfian vocabulary makes the embedding table draw and cache
  most word types on every run.
- selfcheck-grad: `selfcheck.check_gradients` over a few seeds, then
  `selfcheck.check_scorer`, at their built-in tiny shapes. Python call
  overhead dominates, not BLAS.
"""

import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from seqtag import cli, corpus, features, model, selfcheck, train

from corpus_gen import ENTITY_TYPES, CorpusGenerator
from reference import ReferenceTagger

TRAIN_SENTENCES = 100
DEV_SENTENCES = 25  # a quarter of the train set, as in the paper's splits
EPOCHS = 3
TAG_SENTENCES = 600
REFERENCE_EVERY = 50  # tagged sentences checked against the reference pass
GRADIENT_SEEDS = 2
EMBEDDING_DIM = 300
PAPER_INPUT_DIM = 322
POS_TAGS = ("N", "Np", "V", "A", "E", "CH")
CHUNK_TAGS = ("B-NP", "I-NP", "O")


@dataclass
class OpResult:
    seconds: float  # wall time of the whole operation
    samples: list  # the timings the end-to-end metric takes its median over
    attempted: int
    failed: int


def _paper_config(input_dim):
    if input_dim != PAPER_INPUT_DIM:
        raise RuntimeError(f"input width {input_dim}, expected {PAPER_INPUT_DIM}")
    return model.TaggerConfig(labels=corpus.label_alphabet(ENTITY_TYPES),
                              input_dim=input_dim)


class Workload:
    def check_output(self):
        """Failures found in the last operation's output by checks that
        call into seqtag, and so must run outside a traced operation."""
        return 0


class TrainPaper(Workload):
    unit = "epoch after the first of a training run"

    def setup(self, seed, work_dir):
        gen = CorpusGenerator()
        self.seed = seed
        self.train = corpus.read_conll(gen.lines(seed, 1, TRAIN_SENTENCES))
        self.dev = corpus.read_conll(gen.lines(seed, 2, DEV_SENTENCES))
        self.rules = features.load_regex_rules(cli.default_regex_file())
        self.config = _paper_config(self._extractor().input_dim)
        self.tokens = sum(len(s) for s in self.train)
        self.epochs = None  # (loss, dev F1) per epoch of the first run

    def _extractor(self):
        return features.build_extractor(
            self.train, features.FeatureConfig(features.ALL_FEATURES),
            features.random_table(EMBEDDING_DIM, self.seed), self.rules)

    def run_op(self):
        steps = EPOCHS * len(self.train)
        marks = []
        started = perf_counter()
        # a fresh embedding table, as a `seqtag train` run starts with
        extractor = self._extractor()
        tagger = model.init_params(self.config, np.random.default_rng([self.seed, 0]))
        marks.append(perf_counter())
        # patience above the epoch count: early stopping never fires
        tconfig = train.TrainConfig(max_epochs=EPOCHS, patience=EPOCHS + 1,
                                    seed=self.seed)
        try:
            _, log = train.train(tagger, self.train, self.dev, extractor,
                                 tconfig, progress=lambda _: marks.append(perf_counter()))
        except train.NonFiniteLoss:
            return OpResult(perf_counter() - started, [], steps, steps)
        seconds = perf_counter() - started
        epochs = [(e.loss, e.dev_f1) for e in log.entries]
        ok = (len(epochs) == EPOCHS
              and all(math.isfinite(loss) and 0.0 <= f1 <= 100.0 for loss, f1 in epochs)
              and (self.epochs is None or epochs == self.epochs))  # deterministic
        if self.epochs is None:
            self.epochs = epochs
        # epoch k's time runs from epoch k-1's report to its own, so it
        # covers the shuffle, SGD pass, dev evaluation and the checkpoint
        # written after epoch k-1; epoch 1 also pays input assembly
        return OpResult(seconds, list(np.diff(marks)[1:]), steps,
                        0 if ok else steps)

    def headline(self, op_s):
        return "train_tok_per_s", self.tokens / op_s if op_s else 0.0, "tok/s"

    def describe(self):
        return {"train_sentences": len(self.train), "train_tokens": self.tokens,
                "dev_sentences": len(self.dev), "epochs_per_run": EPOCHS,
                "epochs": [{"epoch": k + 1, "loss": loss, "dev_f1": f1}
                           for k, (loss, f1) in enumerate(self.epochs or [])]}


class TagBulk(Workload):
    unit = "`seqtag tag` run, model load to manifest written"

    def setup(self, seed, work_dir):
        gen = CorpusGenerator()
        lines = gen.lines(seed, 3, TAG_SENTENCES)
        self.input = os.path.join(work_dir, "tag-input.conll")
        self.output = os.path.join(work_dir, "tag-output.conll")
        self.model = os.path.join(work_dir, "tag-model.sqtg")
        with open(self.input, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        self.lengths = []
        n = 0
        for line in lines:
            if line == "\n":
                self.lengths.append(n)
                n = 0
            else:
                n += 1
        self.tokens = sum(self.lengths)

        rules = features.load_regex_rules(cli.default_regex_file())
        extractor = features.FeatureExtractor(
            features.FeatureConfig(features.ALL_FEATURES),
            features.random_table(EMBEDDING_DIM, seed),
            features.TagEncoder(POS_TAGS), features.TagEncoder(CHUNK_TAGS), rules)
        # the feature pipeline record `seqtag tag` rebuilds the extractor from
        extra = {
            "entity_types": sorted(ENTITY_TYPES),
            "features": list(features.ALL_FEATURES),
            "embedding": {"mode": "random", "dim": EMBEDDING_DIM, "seed": seed,
                          "lowercase_fallback": True, "vocab": None},
            "pos_tags": list(POS_TAGS),
            "chunk_tags": list(CHUNK_TAGS),
            "regex_rules": [[r.name, r.scope, r.pattern] for r in rules.rules],
        }
        tagger = model.init_params(_paper_config(extractor.input_dim),
                                   np.random.default_rng([seed, 0]), extra=extra)
        model.save(tagger, self.model)
        self.reference = ReferenceTagger(self.model)
        self.mismatches = 0

    def run_op(self):
        started = perf_counter()
        status = cli.main(["tag", "--model", self.model, "--input", self.input,
                           "--output", self.output])
        seconds = perf_counter() - started
        n = len(self.lengths)
        return OpResult(seconds, [seconds], n, n if status != 0 else 0)

    def check_output(self):
        """Sentences that fail a check: one five-column line per input token,
        valid IOB2 predictions, and on every REFERENCE_EVERY-th sentence the
        same labels as the reference forward pass."""
        with open(self.output, encoding="utf-8") as handle:
            blocks = handle.read().split("\n\n")
        sentences = [[line.split(" ") for line in b.splitlines()]
                     for b in blocks if b.strip()]
        failed = abs(len(sentences) - len(self.lengths))
        for k, (rows, length) in enumerate(zip(sentences, self.lengths)):
            if len(rows) != length or any(len(r) != 5 for r in rows):
                failed += 1
                continue
            predicted = [r[4] for r in rows]
            try:
                corpus.validate_iob2(predicted, ENTITY_TYPES)
            except corpus.CorpusError:
                failed += 1
                continue
            if k % REFERENCE_EVERY == 0:
                sent = corpus.Sentence([corpus.Token(*r[:4]) for r in rows])
                if self.reference.tag(sent) != predicted:
                    self.mismatches += 1
                    failed += 1
        return failed

    def headline(self, op_s):
        return "tag_tok_per_s", self.tokens / op_s if op_s else 0.0, "tok/s"

    def describe(self):
        return {"sentences": len(self.lengths), "tokens": self.tokens,
                "reference_sample": len(range(0, len(self.lengths), REFERENCE_EVERY)),
                "reference_mismatches": self.mismatches}


class SelfcheckGrad(Workload):
    unit = "gradient check over the seed set plus the scorer check"

    def setup(self, seed, work_dir):
        self.gradient_seeds = [GRADIENT_SEEDS * seed + k for k in range(GRADIENT_SEEDS)]
        self.scorer_seed = seed
        self.worst_error = 0.0
        self.discrepancies = 0

    def run_op(self):
        failed = 0
        started = perf_counter()
        for s in self.gradient_seeds:
            result = selfcheck.check_gradients(seeds=[s])
            failed += not result.passed
            self.worst_error = max(self.worst_error, result.worst_error)
        diffs = selfcheck.check_scorer(seed=self.scorer_seed)
        seconds = perf_counter() - started
        failed += bool(diffs)
        self.discrepancies = max(self.discrepancies, len(diffs))
        return OpResult(seconds, [seconds], len(self.gradient_seeds) + 1, failed)

    def headline(self, op_s):
        return "selfcheck_s", op_s, "s"

    def describe(self):
        return {"gradient_seeds": self.gradient_seeds, "scorer_seed": self.scorer_seed,
                "worst_relative_error": self.worst_error,
                "scorer_discrepancies": self.discrepancies}


WORKLOADS = {"train-paper": TrainPaper, "tag-bulk": TagBulk,
             "selfcheck-grad": SelfcheckGrad}
