import copy
import tracemalloc

import numpy as np
import pytest

from seqtag import corpus, features, model, train
from seqtag.eval import ScoreReport, TypeScore
from seqtag.numerics import derive_rng


def _tiny_setup(sentences, dim=8, hidden=6, dropout=0.0, layers=1, seed=3,
                cell="lstm"):
    table = features.random_table(dim, seed=seed)
    extractor = features.build_extractor(sentences,
                                         features.FeatureConfig(("word",)),
                                         table)
    cfg = model.TaggerConfig(labels=corpus.label_alphabet(),
                             input_dim=extractor.input_dim, hidden=hidden,
                             layers=layers, cell=cell, bidirectional=True,
                             dropout=dropout)
    tagger = model.init_params(cfg, derive_rng(seed, 0))
    return tagger, extractor


def _dev_report(f1):
    """A dev evaluation whose overall F1 is the integer percentage `f1`."""
    return ScoreReport(overall=TypeScore(gold=100, predicted=100, correct=f1))


@pytest.fixture
def zero_dev_f1(monkeypatch):
    """Stand in for each epoch's dev evaluation with an F1 of 0, so a test
    trains without scoring any dev set."""
    monkeypatch.setattr(train, "evaluate_tagger", lambda *_: _dev_report(0))


def _mini_corpus():
    def sent(words, labels):
        return corpus.Sentence([corpus.Token(w, "N", "B-NP", l)
                                for w, l in zip(words, labels)])
    return [
        sent(["anna", "went", "home"], ["B-PER", "O", "O"]),
        sent(["bob", "meets", "anna"], ["B-PER", "O", "B-PER"]),
        sent(["hanoi", "is", "big"], ["B-LOC", "O", "O"]),
        sent(["bob", "likes", "hanoi"], ["B-PER", "O", "B-LOC"]),
    ]


def _tag_alone(tagger, extractor, sentences):
    """Labels from tagging each sentence on its own."""
    out = []
    for sent in sentences:
        indices = model.predict_indices(tagger, extractor.assemble(sent))
        out.append(corpus.repair_iob(
            [tagger.config.labels[i] for i in indices]))
    return out


def test_tag_corpus_matches_per_sentence_tagging_on_toy(toy_sentences):
    tagger, extractor = _tiny_setup(toy_sentences, hidden=8, layers=2)
    expected = _tag_alone(tagger, extractor, toy_sentences)
    train.tag_corpus(tagger, extractor, toy_sentences)
    assert [s.predicted_labels() for s in toy_sentences] == expected
    assert len({l for labels in expected for l in labels}) > 1


def test_tag_corpus_splits_large_length_groups(monkeypatch):
    # 40 sentences of length 30 exceed one batch of BATCH_TOKENS // 30 rows
    rng = derive_rng(28, 1)
    vocab = [f"w{i}" for i in range(50)]
    lengths = [30] * 40 + [int(n) for n in rng.integers(1, 13, size=60)]
    sentences = [corpus.Sentence([corpus.Token(vocab[rng.integers(0, 50)])
                                  for _ in range(n)])
                 for n in rng.permutation(lengths)]
    tagger, extractor = _tiny_setup(sentences, hidden=6, layers=2)
    tagger.proj_w *= 20.0  # spread the labels out
    expected = _tag_alone(tagger, extractor, sentences)
    shapes = []
    real_forward = model.forward

    def recording_forward(tagger, inputs, *args, **kwargs):
        shapes.append(inputs.shape)
        return real_forward(tagger, inputs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recording_forward)
    train.tag_corpus(tagger, extractor, sentences)
    assert [s.predicted_labels() for s in sentences] == expected
    assert len({l for labels in expected for l in labels}) > 1
    rows = train.BATCH_TOKENS // 30
    full, rest = divmod(40, rows)
    assert full >= 2
    assert [s[1] for s in shapes if s[0] == 30] == [rows] * full + [rest] * (rest > 0)
    assert all(s[0] * s[1] <= train.BATCH_TOKENS for s in shapes)
    assert sum(s[0] * s[1] for s in shapes) == sum(lengths)


def test_clip_gradients_scales_above_budget():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    train.clip_gradients(grads, 5.0)
    assert np.allclose(grads["a"], [3.0, 4.0])
    assert abs(np.linalg.norm(grads["a"]) - 5.0) < 1e-12


def test_clip_gradients_noop_below_budget():
    grads = {"a": np.array([3.0, 0.0])}
    train.clip_gradients(grads, 5.0)
    assert np.array_equal(grads["a"], [3.0, 0.0])


def test_clip_gradients_zero_safe():
    grads = {"a": np.zeros(4)}
    train.clip_gradients(grads, 5.0)
    assert np.array_equal(grads["a"], np.zeros(4))


def test_clip_gradients_preserves_direction():
    rng = derive_rng(0, 1)
    grads = {"a": rng.normal(size=10) * 100, "b": rng.normal(size=(3, 3)) * 100}
    flat_before = np.concatenate([grads["a"].ravel(), grads["b"].ravel()])
    train.clip_gradients(grads, 1.0)
    flat_after = np.concatenate([grads["a"].ravel(), grads["b"].ravel()])
    cos = (flat_before @ flat_after /
           (np.linalg.norm(flat_before) * np.linalg.norm(flat_after)))
    assert abs(cos - 1.0) < 1e-12


@pytest.mark.parametrize("max_norm", [np.nan, np.inf, 0.0, -1.0])
def test_clip_gradients_refuses_a_budget_that_is_not_finite_and_positive(max_norm):
    grads = {"a": np.array([6.0, 8.0])}
    with pytest.raises(ValueError, match="max_norm"):
        train.clip_gradients(grads, max_norm)
    assert np.array_equal(grads["a"], [6.0, 8.0])


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_clipped_step_matches_per_array_clip_and_update(cell, zero_dev_f1):
    sents = _mini_corpus()[1:2]
    tagger, extractor = _tiny_setup(sents, dropout=0.5, layers=2, cell=cell)
    reference = copy.deepcopy(tagger)
    cfg = train.TrainConfig(seed=4, max_epochs=1, clip_norm=0.05)
    best, _ = train.train(tagger, sents, sents, extractor, cfg)

    # the same step, one parameter array at a time
    label_index = {l: i for i, l in enumerate(reference.config.labels)}
    _, grad = model.loss_and_gradients(
        reference, extractor.assemble(sents[0]),
        [label_index[t.gold_label] for t in sents[0]], rng=derive_rng(4, 2))
    grads = dict(model.Tagger(reference.config, theta=grad).param_items())
    norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
    assert norm > cfg.clip_norm  # the step clips
    for g in grads.values():
        g *= cfg.clip_norm / norm
    for name, arr in reference.param_items():
        arr -= cfg.learning_rate * grads[name]
    for (name, want), (_, got), (_, kept) in zip(
            reference.param_items(), tagger.param_items(), best.param_items()):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
        assert np.array_equal(kept, got)


def test_train_updates_theta_in_place_and_returns_its_own_vector():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    theta = tagger.theta
    before = theta.copy()
    cfg = train.TrainConfig(seed=1, max_epochs=1)
    best, _ = train.train(tagger, sents, sents, extractor, cfg)
    assert tagger.theta is theta and not np.array_equal(theta, before)
    assert all(np.shares_memory(arr, theta) for _, arr in tagger.param_items())
    # one epoch: the best checkpoint is the last one, in its own vector
    assert not np.shares_memory(best.theta, theta)
    assert np.array_equal(best.theta, theta)
    assert all(np.shares_memory(arr, best.theta)
               for _, arr in best.param_items())
    assert best.config == tagger.config and best.extra == tagger.extra


def test_train_accepts_a_deep_copy_and_trains_it_like_the_original():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents, dropout=0.5)
    twin = copy.deepcopy(tagger)
    cfg = train.TrainConfig(seed=1, max_epochs=2)
    best_twin, log_twin = train.train(twin, sents, sents, extractor, cfg)
    best, log = train.train(tagger, sents, sents, extractor, cfg)
    assert twin.theta.tobytes() == tagger.theta.tobytes()
    assert best_twin.theta.tobytes() == best.theta.tobytes()
    assert log_twin.to_text() == log.to_text()


@pytest.mark.parametrize("block", ["proj.W", "layer0.bwd.b"])
def test_train_rejects_a_rebound_parameter_block(block):
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    if block == "proj.W":
        tagger.proj_w = tagger.proj_w.copy()
    else:
        tagger.layers[0]["bwd"].b = tagger.layers[0]["bwd"].b + 0.0
    cfg = train.TrainConfig(seed=1, max_epochs=1)
    with pytest.raises(ValueError, match=f"parameter {block} is not a view"):
        train.train(tagger, sents, sents, extractor, cfg)


def test_early_stopping_returns_best_not_last(monkeypatch):
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    scripted = iter([50, 60, 55])
    snapshots = []

    def evaluate_tagger(t, extractor, sentences):
        snapshots.append({n: a.copy() for n, a in t.param_items()})
        return _dev_report(next(scripted))

    monkeypatch.setattr(train, "evaluate_tagger", evaluate_tagger)
    cfg = train.TrainConfig(seed=1, max_epochs=10, patience=1)
    best, log = train.train(tagger, sents, sents, extractor, cfg)
    assert len(log.entries) == 3
    assert log.best_epoch == 2
    assert log.best_dev_f1 == 60.0
    assert log.stop_reason == "early_stop(patience=1)"
    for name, arr in best.param_items():
        assert np.array_equal(arr, snapshots[1][name])


def test_max_epochs_stop_reason():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    cfg = train.TrainConfig(seed=1, max_epochs=2, patience=5)
    _, log = train.train(tagger, sents, sents, extractor, cfg)
    assert log.stop_reason == "max_epochs(2)"
    assert len(log.entries) == 2


def test_training_deterministic_bitwise():
    sents = _mini_corpus()

    def run():
        tagger, extractor = _tiny_setup(sents, dropout=0.5)
        cfg = train.TrainConfig(seed=9, max_epochs=3, patience=3)
        best, log = train.train(tagger, sents, sents, extractor, cfg)
        return best, log

    b1, l1 = run()
    b2, l2 = run()
    for (n1, a1), (n2, a2) in zip(b1.param_items(), b2.param_items()):
        assert n1 == n2 and np.array_equal(a1, a2)
    assert l1.to_text() == l2.to_text()
    assert [e.dev_f1 for e in l1.entries] == [e.dev_f1 for e in l2.entries]


def test_log_best_matches_returned_checkpoint():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    cfg = train.TrainConfig(seed=2, max_epochs=4, patience=4)
    best, log = train.train(tagger, sents, sents, extractor, cfg)
    rescored = train.evaluate_tagger(best, extractor, sents).overall.f1
    assert rescored == pytest.approx(log.best_dev_f1, abs=1e-9)
    assert log.best_dev_f1 == max(e.dev_f1 for e in log.entries)


def test_single_sgd_step_decreases_sentence_loss():
    rng = derive_rng(11, 0)
    decreased = 0
    trials = 100
    for k in range(trials):
        cfg = model.TaggerConfig(labels=["a", "b", "c"], input_dim=5,
                                 hidden=4, layers=1, bidirectional=False,
                                 dropout=0.0)
        tagger = model.init_params(cfg, derive_rng(100 + k, 0))
        x = rng.uniform(-1, 1, size=(4, 5))
        gold = [int(g) for g in rng.integers(0, 3, size=4)]
        before, grad = model.loss_and_gradients(tagger, x, gold)
        tagger.theta -= 1e-4 * grad
        after = model.sentence_loss(tagger, x, gold)
        if after < before:
            decreased += 1
    assert decreased >= 95


def test_non_finite_loss_reports_coordinates():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    tagger.proj_w[0, 0] = np.nan
    cfg = train.TrainConfig(seed=1, max_epochs=2, patience=2)
    with pytest.raises(train.NonFiniteLoss, match="epoch 1"):
        train.train(tagger, sents, sents, extractor, cfg)


def test_empty_corpus_errors():
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    cfg = train.TrainConfig(seed=1, max_epochs=1)
    with pytest.raises(train.EmptyCorpus):
        train.train(tagger, [], sents, extractor, cfg)
    with pytest.raises(train.EmptyCorpus):
        train.train(tagger, sents, [], extractor, cfg)


@pytest.mark.parametrize("bad, error", [
    (corpus.Sentence([]), ValueError),
    (corpus.Sentence([corpus.Token("anna", "N", "B-NP", "B-XYZ")]), KeyError),
])
def test_bad_training_sentence_is_refused_before_any_update(bad, error):
    sents = _mini_corpus()
    tagger, extractor = _tiny_setup(sents)
    before = tagger.theta.copy()
    cfg = train.TrainConfig(seed=1, max_epochs=1)
    for position in (0, len(sents)):
        with pytest.raises(error):
            train.train(tagger, sents[:position] + [bad] + sents[position:],
                        sents, extractor, cfg)
        assert tagger.theta.tobytes() == before.tobytes()


def test_training_memory_does_not_grow_with_the_corpus(zero_dev_f1):
    # 200 five-token sentences of distinct words under a one-hot table: the
    # inputs of the whole set would take tokens x input_dim x 8 B (~8 MB)
    words = [f"w{i}" for i in range(1000)]
    sents = [corpus.Sentence([corpus.Token(w, "N", "B-NP", "O")
                              for w in words[i:i + 5]])
             for i in range(0, len(words), 5)]
    table = features.embedding_table("onehot", 0, 0, vocab=words)
    extractor = features.build_extractor(
        sents, features.FeatureConfig(("word",)), table)
    cfg = model.TaggerConfig(labels=corpus.label_alphabet(),
                             input_dim=extractor.input_dim, hidden=2,
                             layers=1, bidirectional=True, dropout=0.0)
    tagger = model.init_params(cfg, derive_rng(0, 0))
    full_inputs = len(words) * extractor.input_dim * 8
    tracemalloc.start()
    try:
        train.train(tagger, sents, sents, extractor,
                    train.TrainConfig(seed=0, max_epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_inputs / 4, (peak, full_inputs)


def test_train_log_text_format():
    log = train.TrainLog()
    log.entries.append(train.EpochRecord(1, 1.5, 42.0, 0.1))
    log.best_epoch = 1
    log.best_dev_f1 = 42.0
    log.stop_reason = "max_epochs(1)"
    text = log.to_text()
    assert text.splitlines()[0] == "epoch\tloss\tdev_f1"
    assert "1\t1.500000\t42.0000" in text
    assert "best_epoch=1" in text
    assert "stop_reason=max_epochs(1)" in text


def test_ablate_identical_rows_identical_scores(toy_sentences):
    sents = toy_sentences[:12]
    setup = train.ExperimentSetup(
        train_sentences=sents, dev_sentences=sents,
        embedding_mode="random", embedding_dim=8,
        hidden=5, layers=1, dropout=0.0)
    rows = [("first", {"feature_set": ("word",)}),
            ("second", {"feature_set": ("word",)})]
    cfg = train.TrainConfig(seed=4, max_epochs=2, patience=2)
    results = train.ablate(setup, rows, cfg)
    assert results[0].error is None and results[1].error is None
    assert results[0].f1 == results[1].f1
    assert results[0].precision == results[1].precision


def test_ablate_row_failure_recorded_and_run_continues(toy_sentences):
    sents = toy_sentences[:8]
    setup = train.ExperimentSetup(
        train_sentences=sents, dev_sentences=sents,
        embedding_mode="random", embedding_dim=8,
        hidden=4, layers=1, dropout=0.0, embeddings_path=None)
    rows = [("broken", {"embedding_mode": "pretrained"}),
            ("fine", {"feature_set": ("word",)})]
    cfg = train.TrainConfig(seed=4, max_epochs=1, patience=1)
    results = train.ablate(setup, rows, cfg)
    assert results[0].error is not None
    assert results[1].error is None


def test_render_ablation_and_tsv():
    rows = [train.AblationRow("Word", 75.0, 72.0, 73.5),
            train.AblationRow("Broken", error="boom")]
    text = train.render_ablation(rows)
    assert "Word" in text and "73.50" in text
    assert "FAILED: boom" in text
    tsv = train.ablation_tsv(rows)
    assert "Word\t75.0000\t72.0000\t73.5000\tok" in tsv
    assert "failed: boom" in tsv


def test_ablation_presets_shapes():
    assert len(train.ABLATION_PRESETS["table7"]) == 7
    assert [name for name, _ in train.ABLATION_PRESETS["table6"]] == [
        "Dropout = 0.5", "Dropout = 0.0"]
    assert [name for name, _ in train.ABLATION_PRESETS["table4"]] == [
        "Bi-LSTM", "LSTM"]
    assert [name for name, _ in train.ABLATION_PRESETS["table5"]] == [
        "Two layers", "One layer"]
    assert [name for name, _ in train.ABLATION_PRESETS["table3"]] == [
        "Skip-Gram", "Random", "One-hot"]
