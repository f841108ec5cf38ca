"""Span tracing for the benchmark's traced runs.

`Tracer.patched()` replaces seqtag's public functions with timing wrappers
for the duration of a `with` block and restores the originals afterwards.
Where a caller bound a name at import (`from .eval import score`), the
caller's copy is patched too, or the call would bypass the wrapper.

Each call becomes a span (name, start, end, parent) kept in memory; counts
are taken at the same boundaries. A span's self time is its duration minus
the durations of its direct children.
"""

import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from seqtag import cli, corpus, eval as evaluation, features, model, numerics
from seqtag import selfcheck, train


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn, before=None, after=None):
        """`name` is a span name or a function of (args, kwargs) giving one;
        `before(args, kwargs)` runs before the span opens and its result is
        passed to `after(state, args, kwargs, result)` once it closes."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(state, args, kwargs, return_value)
            return return_value

        return wrapper

    def _targets(self):
        """(owners, attribute, span name, before, after) for every traced
        public function; owners lists each module or class holding a copy."""
        counts = self.counts

        def read_conll_after(_, args, kwargs, sentences):
            # a path argument re-enters read_conll with the open handle;
            # count the tokens once, on the inner call
            if not isinstance(_arg(args, kwargs, 0, "source"), (str, os.PathLike)):
                counts["corpus.read_conll.tokens"] += sum(len(s) for s in sentences)

        def repair_after(_, args, kwargs, repaired):
            labels = _arg(args, kwargs, 0, "labels")
            counts["corpus.repair_iob.labels"] += len(repaired)
            counts["corpus.repair_iob.changed"] += sum(
                a != b for a, b in zip(labels, repaired))

        def assemble_before(args, kwargs):
            return len(args[0].table)

        def assemble_after(table_len, args, kwargs, _):
            counts["features.assemble.tokens"] += len(_arg(args, kwargs, 1, "sentence"))
            counts["features.oov_draws"] += len(args[0].table) - table_len

        def forward_name(args, kwargs):
            if _arg(args, kwargs, 2, "rng") is None:
                return "model.forward.infer"
            return "model.forward.train"

        def forward_after(_, args, kwargs, __):
            counts["model.forward.calls"] += 1
            counts["model.forward.tokens"] += len(_arg(args, kwargs, 1, "inputs"))

        def sentence_loss_after(*_):
            counts["model.sentence_loss.calls"] += 1

        def save_after(_, args, kwargs, __):
            sink = _arg(args, kwargs, 1, "sink")
            if isinstance(sink, (str, os.PathLike)):
                counts["model.save.bytes"] += os.path.getsize(sink)

        def clip_before(args, kwargs):
            # the whole block is scaled when clipping fires, so a changed
            # bias gradient tells whether it did
            return _arg(args, kwargs, 0, "grads")["proj.b"].copy()

        def clip_after(bias_grad, args, kwargs, grads):
            counts["train.steps"] += 1
            counts["train.clip_gradients.clipped"] += int(
                (grads["proj.b"] != bias_grad).any())

        def score_after(_, args, kwargs, report):
            counts["eval.score.tokens"] += report.token_count

        def fd_after(_, args, kwargs, __):
            params = _arg(args, kwargs, 1, "params")
            blocks = params.values() if isinstance(params, dict) else [params]
            counts["numerics.finite_diff_grad.evals"] += 2 * sum(a.size for a in blocks)

        return [
            ((corpus,), "read_conll", "corpus.read_conll", None, read_conll_after),
            ((corpus, evaluation, selfcheck), "repair_iob", "corpus.repair_iob",
             None, repair_after),
            ((features.FeatureExtractor,), "assemble", "features.assemble",
             assemble_before, assemble_after),
            ((model,), "forward", forward_name, None, forward_after),
            ((model,), "loss_and_gradients", "model.backward", None, None),
            ((model,), "sentence_loss", "model.sentence_loss", None,
             sentence_loss_after),
            ((model,), "save", "model.save", None, save_after),
            ((model,), "load", "model.load", None, None),
            ((train,), "clip_gradients", "train.clip_gradients", clip_before,
             clip_after),
            ((train,), "train", "train.sgd_other", None, None),
            ((train,), "evaluate_tagger", "train.evaluate_tagger", None, None),
            ((evaluation, train, selfcheck), "score", "eval.score", None,
             score_after),
            ((numerics, selfcheck), "finite_diff_grad", "numerics.finite_diff_grad",
             None, fd_after),
            ((selfcheck,), "check_gradients", "selfcheck.check_gradients", None, None),
            ((selfcheck,), "check_scorer", "selfcheck.check_scorer", None, None),
            ((cli,), "cmd_tag", "cli.tag", None, None),
        ]

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owners, attr, name, before, after in self._targets():
                wrapper = self._wrap(name, getattr(owners[0], attr), before, after)
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, first=0):
        """Self seconds per span name over spans[first:]."""
        totals = Counter()
        for name, start, end, _ in self.spans[first:]:
            totals[name] += end - start
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                totals[self.spans[parent][0]] -= end - start
        return totals
