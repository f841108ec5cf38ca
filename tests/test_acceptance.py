"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with -s or -v to see them). Tolerances are pinned here,
not configurable."""

import itertools
import time

import numpy as np

from seqtag import cli, corpus, features, model, selfcheck, train
from seqtag.corpus import (convert_scheme, extract_spans, validate_iob2)
from seqtag.eval import f1
from seqtag.model import CellParams, load, run_layer, save
from seqtag.numerics import derive_rng
from seqtag.selfcheck import (check_gradients, check_scorer,
                              compare_recurrence_pathology, enumerate_spans)
from conftest import synth_chunk_corpus


def _criterion(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_gradient_correctness_20_seeds():
    started = time.perf_counter()
    res = check_gradients(seeds=range(20), hidden=8, input_dim=10, seq_len=5,
                          n_labels=4, layers=2, bidirectional=True,
                          dropout=0.0)
    elapsed = time.perf_counter() - started
    ok = res.worst_error < 1e-4 and elapsed < 60.0
    _criterion(1, "gradient correctness",
               ok, f"worst rel err {res.worst_error:.3e}, {elapsed:.1f}s")


def test_c02_f1_arithmetic_reproduction():
    a = f1(91.09, 93.03)
    b = f1(75.88, 72.26)
    ok = abs(a - 92.05) <= 0.01 and abs(b - 74.02) <= 0.01
    _criterion(2, "F1 arithmetic", ok, f"{a:.4f} vs 92.05, {b:.4f} vs 74.02")


def test_c03_scorer_oracle_equivalence_1000_pairs():
    assert selfcheck.MAX_PAIR_LEN == 12
    diffs = check_scorer(n_pairs=1000, seed=7)
    _criterion(3, "scorer-oracle equivalence", len(diffs) == 0,
               f"{len(diffs)} discrepancies" + ("; " + diffs[0] if diffs else ""))


def test_c04_overfit_toy_corpus_default_config():
    started = time.perf_counter()
    sents = corpus.read_conll(cli.toy_corpus_file())
    assert len(sents) <= 50
    table = features.random_table(300, seed=7)
    extractor = features.build_extractor(
        sents, features.FeatureConfig(("word",)), table)
    tconfig = model.TaggerConfig(labels=corpus.label_alphabet(),
                                 input_dim=extractor.input_dim)
    tagger = model.init_params(tconfig, derive_rng(7, 0))
    # default architecture and optimizer settings; patience widened to the
    # epoch budget so early stopping cannot cut the 200-epoch window short
    cfg = train.TrainConfig(seed=7, max_epochs=200, patience=200)
    best, log = train.train(tagger, sents, sents, extractor, cfg)
    elapsed = time.perf_counter() - started
    first_hit = next((e.epoch for e in log.entries if e.dev_f1 >= 100.0), None)
    ok = log.best_dev_f1 == 100.0 and first_hit is not None \
        and first_hit <= 200 and elapsed < 300.0
    _criterion(4, "overfit toy corpus", ok,
               f"100.00 at epoch {first_hit}, {elapsed:.0f}s")


def test_c05_bilayer_decomposition_bit_identical():
    ok = True
    for k in range(100):
        rng = derive_rng(300, k)
        hidden = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 6))
        T = int(rng.integers(1, 9))
        fwd = CellParams.init(rng, hidden, dim)
        bwd = CellParams.init(rng, hidden, dim)
        x = rng.uniform(-2, 2, size=(T, dim))
        combined = run_layer({"fwd": fwd, "bwd": bwd}, x)
        parts = np.concatenate([run_layer({"fwd": fwd}, x),
                                run_layer({"bwd": bwd}, x)], axis=1)
        if not np.array_equal(combined, parts):
            ok = False
            break
    _criterion(5, "bi-layer decomposition", ok, "100 random inputs")


def test_c06_cli_determinism(tmp_path):
    toy = cli.toy_corpus_file()
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        out = str(d / "model.sqtg")
        rc = cli.main(["train", "--train", toy, "--dev", toy, "--seed", "7",
                       "--hidden", "10", "--embedding-dim", "16",
                       "--max-epochs", "3", "--patience", "3", "--quiet",
                       "--out", out])
        assert rc == 0
        outs.append(out)
    models_equal = open(outs[0], "rb").read() == open(outs[1], "rb").read()
    logs_equal = (open(outs[0] + ".log", "rb").read()
                  == open(outs[1] + ".log", "rb").read())
    _criterion(6, "training determinism", models_equal and logs_equal,
               f"model bytes equal: {models_equal}, logs equal: {logs_equal}")


def test_c07_oov_embedding_statistics():
    table = features.random_table(300, seed=9)
    n = 100_000
    total = 0.0
    total_sq = 0.0
    count = 0
    max_abs = 0.0
    for k in range(n):
        v = table.lookup(f"oov_word_{k}")
        total += v.sum()
        total_sq += float(v @ v)
        count += v.size
        m = float(np.max(np.abs(v)))
        if m > max_abs:
            max_abs = m
    mean = total / count
    var = total_sq / count - mean * mean
    target_var = 0.01 / 3.0
    ok = (max_abs <= 0.1 and abs(mean) <= 0.002
          and abs(var - target_var) <= 0.05 * target_var)
    _criterion(7, "OOV embedding statistics", ok,
               f"max |v| {max_abs:.6f}, mean {mean:.2e}, var {var:.6f}")


def test_c08_chunk_feature_directionality():
    train_s = synth_chunk_corpus(40, seed=11)
    score_s = synth_chunk_corpus(15, seed=12)
    setup = train.ExperimentSetup(
        train_sentences=train_s, dev_sentences=score_s,
        entity_types=("LOC",), embedding_mode="random", embedding_dim=12,
        hidden=12, layers=1, bidirectional=True,
        dropout=0.0)
    rows = [("Word", {"feature_set": ("word",)}),
            ("Word+Chunk", {"feature_set": ("word", "chunk")})]
    cfg = train.TrainConfig(seed=11, max_epochs=25, patience=25)
    results = train.ablate(setup, rows, cfg)
    word_f1 = results[0].f1
    chunk_f1 = results[1].f1
    ok = (results[0].error is None and results[1].error is None
          and chunk_f1 >= word_f1 + 20.0)
    _criterion(8, "chunk-feature gain", ok,
               f"Word {word_f1:.2f} vs Word+Chunk {chunk_f1:.2f}")


def test_c09_iob_machinery_exhaustive():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    checked = 0
    ok = True
    for length in range(1, 7):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            try:
                validate_iob2(labels)
            except corpus.InvalidSequence:
                continue
            got = {(s.entity_type, s.start, s.end)
                   for s in extract_spans(labels)}
            if got != enumerate_spans(labels):
                ok = False
            checked += 1
    roundtrips = 0
    for length in range(1, 6):
        for combo in itertools.product(alphabet, repeat=length):
            labels = list(combo)
            try:
                validate_iob2(labels)
            except corpus.InvalidSequence:
                continue
            iob1 = convert_scheme(labels, "IOB2", "IOB1")
            if convert_scheme(iob1, "IOB1", "IOB2") != labels:
                ok = False
            roundtrips += 1
    _criterion(9, "IOB machinery", ok,
               f"{checked} sequences vs oracle, {roundtrips} round-trips")


def test_c10_serialization_roundtrip_and_corruption(tmp_path):
    cfg = model.TaggerConfig(labels=corpus.label_alphabet(), input_dim=12,
                             hidden=7, layers=2, bidirectional=True,
                             dropout=0.5)
    tagger = model.init_params(cfg, derive_rng(23, 0), extra={"x": 1})
    path = str(tmp_path / "m.sqtg")
    save(tagger, path)
    loaded = load(path)
    bitwise = all(np.array_equal(a, b) for (_, a), (_, b)
                  in zip(tagger.param_items(), loaded.param_items()))

    raw = open(path, "rb").read()
    failures = {}
    corrupted = bytearray(raw)
    corrupted[:4] = b"XXXX"
    try:
        load_bytes(bytes(corrupted))
    except model.BadMagic:
        failures["magic"] = True
    except Exception:
        failures["magic"] = False
    corrupted = bytearray(raw)
    corrupted[4:8] = (99).to_bytes(4, "little")
    try:
        load_bytes(bytes(corrupted))
    except model.UnsupportedVersion:
        failures["version"] = True
    except Exception:
        failures["version"] = False
    try:
        load_bytes(raw[:len(raw) - len(raw) // 3])
    except model.TruncatedFile:
        failures["truncation"] = True
    except Exception:
        failures["truncation"] = False

    ok = bitwise and all(failures.get(k) for k in ("magic", "version",
                                                   "truncation"))
    _criterion(10, "serialization", ok, f"roundtrip bitwise {bitwise}, "
               f"corruption errors {failures}")


def load_bytes(data):
    import io
    return load(io.BytesIO(data))


def test_c11_rnn_gradient_pathology():
    assert selfcheck.PATHOLOGY_LEN == 132
    e_rnn, e_lstm = compare_recurrence_pathology()
    ok = e_rnn >= 1e3 * e_lstm
    _criterion(11, "recurrence pathology", ok,
               f"rnn {e_rnn:.3e} vs lstm {e_lstm:.3e} "
               f"(ratio {e_rnn / e_lstm:.3e})")
