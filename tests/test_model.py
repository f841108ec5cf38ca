import copy
import hashlib
import io
import json
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from seqtag import model, numerics
from seqtag.model import (BadMagic, CellParams, ChecksumMismatch,
                          EmptySequence, Tagger, TaggerConfig, TruncatedFile,
                          UnsupportedVersion, forward, init_params, load,
                          loss_and_gradients, run_layer, save)
from seqtag.numerics import DimensionMismatch, derive_rng
from seqtag import selfcheck
from seqtag.selfcheck import check_gradients
import oracle
from oracle import LstmState, gate, lstm_step, rnn_step


def _config(**kw):
    base = dict(labels=["O", "B-X", "I-X"], input_dim=4, hidden=3, layers=1,
                cell="lstm", bidirectional=False, dropout=0.0)
    base.update(kw)
    return TaggerConfig(**base)


def test_lstm_step_zero_params():
    p = CellParams(3, 2)
    state = lstm_step(p, np.array([1.0, -1.0]), LstmState.zeros(3))
    assert np.array_equal(state.c, np.zeros(3))
    assert np.array_equal(state.h, np.zeros(3))


def test_lstm_step_scalar_hand_case():
    # H=1, D=1, all weights 1, biases 0, x=1, zero initial state:
    # every gate is sigmoid(1), candidate is tanh(1),
    # c = 0.731059 * 0.761594, h = sigmoid(1) * tanh(c);
    # values below recomputed with a 30-digit evaluator
    p = CellParams(1, 1)
    p.W[:] = 1.0
    p.U[:] = 1.0
    state = lstm_step(p, np.array([1.0]), LstmState.zeros(1))
    assert state.c[0] == pytest.approx(0.55676994114594, abs=1e-12)
    assert state.h[0] == pytest.approx(0.36960635293571, abs=1e-12)


def test_lstm_step_saturated_forget_gate_preserves_memory():
    rng = derive_rng(0, 1)
    p = CellParams.init(rng, 4, 3, forget_bias=20.0)
    prev = LstmState(np.zeros(4), np.array([1.0, -2.0, 3.0, -4.0]))
    x = np.zeros(3)
    state = lstm_step(p, x, prev)
    (_, U_i, b_i), (_, U_f, b_f), (_, U_c, b_c) = (gate(p, g) for g in "ifc")
    i = 1.0 / (1.0 + np.exp(-(U_i @ x + b_i)))
    g = np.tanh(U_c @ x + b_c)
    f = 1.0 / (1.0 + np.exp(-(U_f @ x + b_f)))
    assert np.all(np.abs(f - 1.0) < 1e-8)
    assert np.max(np.abs(state.c - (prev.c + i * g))) < 1e-7


def test_gate_ranges():
    rng = derive_rng(1, 1)
    p = CellParams.init(rng, 5, 4)
    state = LstmState.zeros(5)
    for t in range(20):
        x = rng.uniform(-5, 5, size=4)
        state = lstm_step(p, x, state)
        assert np.all(state.h > -1.0) and np.all(state.h < 1.0)
        assert np.all(np.isfinite(state.c))


def test_rnn_step_zero_params_and_scalar():
    p = CellParams(3, 2, "rnn")
    assert np.array_equal(rnn_step(p, np.ones(2), np.zeros(3)), np.zeros(3))
    p1 = CellParams(1, 1, "rnn")
    p1.U = np.array([[1.0]])
    assert rnn_step(p1, np.array([0.7]), np.zeros(1))[0] == \
        pytest.approx(np.tanh(0.7), abs=1e-15)


def test_run_layer_single_step_directions_agree():
    p = CellParams.init(derive_rng(2, 1), 3, 4)
    x = derive_rng(2, 2).uniform(-1, 1, size=(1, 4))
    assert np.array_equal(run_layer({"fwd": p}, x), run_layer({"bwd": p}, x))


def test_run_layer_bwd_is_reversed_fwd_of_reversed_input():
    p = CellParams.init(derive_rng(3, 1), 3, 4)
    x = derive_rng(3, 2).uniform(-1, 1, size=(6, 4))
    bwd = run_layer({"bwd": p}, x)
    ref = run_layer({"fwd": p}, x[::-1])[::-1]
    assert np.array_equal(bwd, ref)


def test_run_layer_zero_params_zero_output():
    p = CellParams(3, 4)
    x = derive_rng(4, 1).uniform(-1, 1, size=(5, 4))
    assert np.array_equal(run_layer({"fwd": p}, x), np.zeros((5, 3)))


def test_run_layer_empty_sequence():
    p = CellParams(3, 4)
    with pytest.raises(EmptySequence):
        run_layer({"fwd": p}, np.zeros((0, 4)))


@pytest.mark.parametrize("directions", [(), ("up",), ("fwd", "left")])
def test_run_layer_refuses_an_unknown_direction(directions):
    p = CellParams(3, 4)
    with pytest.raises(ValueError, match="'fwd' or 'bwd'"):
        run_layer({d: p for d in directions}, np.zeros((2, 4)))


def test_run_layer_matches_stepwise_reference():
    # the stacked-gate runner and the literal per-gate step must agree
    p = CellParams.init(derive_rng(5, 1), 4, 6)
    x = derive_rng(5, 2).uniform(-1, 1, size=(7, 6))
    states = run_layer({"fwd": p}, x)
    st = LstmState.zeros(4)
    for t in range(7):
        st = lstm_step(p, x[t], st)
        assert np.max(np.abs(st.h - states[t])) < 1e-12
    rnn = CellParams.init(derive_rng(5, 3), 4, 6, "rnn")
    states = run_layer({"fwd": rnn}, x)
    h = np.zeros(4)
    for t in range(7):
        h = rnn_step(rnn, x[t], h)
        assert np.max(np.abs(h - states[t])) < 1e-12


def test_run_bilayer_width_and_decomposition():
    fwd = CellParams.init(derive_rng(6, 1), 3, 4)
    bwd = CellParams.init(derive_rng(6, 2), 3, 4)
    x = derive_rng(6, 3).uniform(-1, 1, size=(5, 4))
    out = run_layer({"fwd": fwd, "bwd": bwd}, x)
    assert out.shape == (5, 6)
    expected = np.concatenate([run_layer({"fwd": fwd}, x),
                               run_layer({"bwd": bwd}, x)], axis=1)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_forward_first_layer_is_run_bilayer(cell):
    # C5 checks run_layer on a bidirectional layer; this ties it to the
    # pass forward() runs
    for k in range(10):
        rng = derive_rng(310, k)
        cfg = _config(hidden=int(rng.integers(1, 6)), layers=2, cell=cell,
                      bidirectional=True)
        tagger = init_params(cfg, rng)
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 9)), 4))
        _, cache = forward(tagger, x)
        layer = tagger.layers[0]
        assert np.array_equal(cache["layers"][0]["output"],
                              run_layer(layer, x))


def test_run_bilayer_palindrome_symmetry():
    p = CellParams.init(derive_rng(7, 1), 3, 4)
    half = derive_rng(7, 2).uniform(-1, 1, size=(3, 4))
    x = np.concatenate([half, half[::-1]])
    out = run_layer({"fwd": p, "bwd": p}, x)
    T, H = len(x), 3
    for t in range(T):
        assert np.max(np.abs(out[t, :H] - out[T - 1 - t, H:])) < 1e-12


def test_forward_distributions_sum_to_one():
    cfg = _config(layers=2, bidirectional=True)
    tagger = init_params(cfg, derive_rng(8, 1))
    x = derive_rng(8, 2).uniform(-1, 1, size=(6, 4))
    probs, _ = forward(tagger, x)
    assert probs.shape == (6, 3)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(probs >= 0.0)


def test_forward_dropout_zero_train_equals_infer():
    cfg = _config(dropout=0.0)
    tagger = init_params(cfg, derive_rng(9, 1))
    x = derive_rng(9, 2).uniform(-1, 1, size=(4, 4))
    train_probs, _ = forward(tagger, x, rng=derive_rng(9, 3))
    infer_probs, _ = forward(tagger, x)
    assert np.array_equal(train_probs, infer_probs)


def test_forward_infer_deterministic():
    cfg = _config(dropout=0.5)
    tagger = init_params(cfg, derive_rng(10, 1))
    x = derive_rng(10, 2).uniform(-1, 1, size=(4, 4))
    p1, _ = forward(tagger, x)
    p2, _ = forward(tagger, x)
    assert np.array_equal(p1, p2)


def test_forward_rejects_wrong_width():
    tagger = init_params(_config(), derive_rng(11, 1))
    with pytest.raises(DimensionMismatch):
        forward(tagger, np.zeros((3, 7)))


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("bidirectional", [True, False])
def test_forward_batch_matches_per_sentence(cell, bidirectional):
    # a time-major batch of equal-length sentences gives each sentence the
    # distributions it gets alone, up to the last bits of a multi-row gemm
    cfg = _config(layers=2, hidden=5, cell=cell, bidirectional=bidirectional,
                  dropout=0.5)
    tagger = init_params(cfg, derive_rng(24, 1))
    batch = derive_rng(24, 2).uniform(-2, 2, size=(7, 6, 4))
    probs, _ = forward(tagger, batch)
    assert probs.shape == (7, 6, 3)
    for b in range(6):
        alone, _ = forward(tagger, batch[:, b])
        assert np.allclose(probs[:, b], alone, rtol=0.0, atol=1e-12)
        assert np.array_equal(probs[:, b].argmax(axis=-1),
                              alone.argmax(axis=-1))
    assert model.predict_indices(tagger, batch) == [
        model.predict_indices(tagger, batch[:, b]) for b in range(6)]


def test_forward_inference_keeps_no_bptt_cache():
    tagger = init_params(_config(layers=2, bidirectional=True),
                         derive_rng(25, 1))
    x = derive_rng(25, 2).uniform(-1, 1, size=(4, 4))
    _, infer_cache = forward(tagger, x)
    assert all(c is None for layer in infer_cache["layers"]
               for c in layer["dirs"].values())
    _, train_cache = forward(tagger, x, bptt=True)
    assert all(len(c) == 5 for layer in train_cache["layers"]
               for c in layer["dirs"].values())


@pytest.mark.parametrize("shape", [(0, 4), (0, 3, 4), (3, 0, 4)])
def test_forward_rejects_empty_input(shape):
    tagger = init_params(_config(), derive_rng(26, 1))
    with pytest.raises(EmptySequence):
        forward(tagger, np.zeros(shape))


@pytest.mark.parametrize("shape", [(4,), (3, 2, 7), (3, 2, 1, 4)])
def test_forward_rejects_bad_shapes(shape):
    tagger = init_params(_config(), derive_rng(27, 1))
    with pytest.raises(DimensionMismatch):
        forward(tagger, np.zeros(shape))


def test_loss_uniform_equals_log_label_count():
    cfg = _config(layers=1)
    tagger = Tagger(cfg)  # all-zero parameters: logits are all zero
    x = derive_rng(12, 1).uniform(-1, 1, size=(5, 4))
    loss, grads = loss_and_gradients(tagger, x, [0, 1, 2, 0, 1])
    assert loss == pytest.approx(np.log(3), abs=1e-12)


def test_loss_confident_correct_prediction_near_zero():
    cfg = _config()
    tagger = init_params(cfg, derive_rng(13, 1))
    tagger.proj_b = np.array([50.0, 0.0, 0.0])
    x = derive_rng(13, 2).uniform(-1, 1, size=(1, 4))
    loss, grad = loss_and_gradients(tagger, x, [0])
    assert loss < 1e-6
    assert np.max(np.abs(grad)) < 1e-6


def test_loss_rejects_bad_label_index():
    tagger = init_params(_config(), derive_rng(14, 1))
    x = np.zeros((2, 4))
    with pytest.raises(IndexError):
        loss_and_gradients(tagger, x, [0, 3])
    with pytest.raises(ValueError):
        loss_and_gradients(tagger, x, [0])


def test_gradients_match_finite_differences_small():
    res = check_gradients(seeds=range(2), hidden=4, input_dim=3, seq_len=3,
                          n_labels=3, layers=1, bidirectional=False)
    assert res.passed, f"worst relative error {res.worst_error}"


def test_gradients_match_finite_differences_bi_two_layer():
    res = check_gradients(seeds=range(1), hidden=3, input_dim=4, seq_len=4,
                          n_labels=3, layers=2, bidirectional=True)
    assert res.passed, f"worst relative error {res.worst_error}"


def test_gradients_match_with_fixed_dropout_masks():
    res = check_gradients(seeds=range(1), hidden=3, input_dim=4, seq_len=4,
                          n_labels=3, layers=2, bidirectional=True, dropout=0.5)
    assert res.passed, f"worst relative error {res.worst_error}"


def test_gradients_match_rnn_cell():
    res = check_gradients(seeds=range(1), hidden=4, input_dim=3, seq_len=5,
                          n_labels=3, layers=1, bidirectional=True, cell="rnn")
    assert res.passed, f"worst relative error {res.worst_error}"


def test_gradient_check_fails_on_a_nan_gradient(monkeypatch):
    exact = model.loss_and_gradients

    def nan_at_5(*args, **kwargs):
        loss, grad = exact(*args, **kwargs)
        grad[5] = np.nan
        return loss, grad

    monkeypatch.setattr(model, "loss_and_gradients", nan_at_5)
    res = check_gradients(seeds=range(2), hidden=3, input_dim=3, seq_len=3,
                          n_labels=3, layers=1, bidirectional=False)
    assert not res.passed


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("T", [1, 2, 7])
def test_backprop_cell_matches_reference_loop(cell, T):
    rng = derive_rng(T, 7)
    params = CellParams.init(rng, 5, 3, cell)
    params.b = rng.normal(0.0, 0.5, size=params.b.shape)
    inputs = rng.normal(size=(T, 3))
    dstates = rng.normal(size=(T, 5))
    _, cache = model._run_cell(params, inputs, bptt=True)
    want = CellParams(5, 3, cell)
    got = CellParams(5, 3, cell, np.full(CellParams.size(5, 3, cell), np.nan))
    want_dx = oracle.backprop_cell(params, cache, dstates, want)
    got_dx = model._backprop_cell(params, cache, dstates, got)
    for (name, w), (_, g) in zip(want.items(), got.items()):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15, err_msg=name)
    np.testing.assert_allclose(got_dx, want_dx, rtol=1e-12, atol=1e-15)
    assert model._backprop_cell(params, cache, dstates, got,
                                input_grads=False) is None


def test_gradient_extremeness_matches_reference_loop(monkeypatch):
    got = selfcheck.compare_recurrence_pathology()
    monkeypatch.setattr(model, "_backprop_cell", oracle.backprop_cell)
    want = selfcheck.compare_recurrence_pathology()
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert np.isfinite(got).all()


def test_loss_and_gradients_writes_into_given_buffers():
    tagger = init_params(_config(layers=2, bidirectional=True), derive_rng(4, 0))
    x = derive_rng(4, 1).uniform(-1, 1, size=(6, 4))
    gold = [0, 1, 2, 0, 2, 1]
    loss, fresh = loss_and_gradients(tagger, x, gold)
    flat = np.full(fresh.size, np.nan)  # every element must be written
    loss2, grad = loss_and_gradients(tagger, x, gold, grad=flat)
    assert grad is flat and loss2 == loss
    assert fresh.shape == tagger.theta.shape  # laid out like theta
    assert np.array_equal(grad, fresh)
    assert np.isfinite(flat).all()


def _assert_arrays_tile_theta(tagger):
    """Every parameter array is a view of its own stretch of `theta`, in
    param_items() order, and together they cover all of it."""
    saved = tagger.theta.copy()
    tagger.theta[:] = np.arange(tagger.theta.size)
    offset = 0
    for name, arr in tagger.param_items():
        assert np.array_equal(arr.reshape(-1),
                              np.arange(offset, offset + arr.size)), name
        offset += arr.size
    assert offset == tagger.theta.size
    tagger.theta[:] = saved


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_parameter_arrays_tile_theta(cell, bidirectional):
    cfg = _config(layers=2, cell=cell, bidirectional=bidirectional)
    empty = Tagger(cfg)
    assert empty.theta.dtype == np.float64 and not empty.theta.any()
    _assert_arrays_tile_theta(empty)
    tagger = init_params(cfg, derive_rng(5, 0))
    _assert_arrays_tile_theta(tagger)
    buf = io.BytesIO()
    save(tagger, buf)
    buf.seek(0)
    loaded = load(buf)
    _assert_arrays_tile_theta(loaded)
    assert np.array_equal(loaded.theta, tagger.theta)


def test_corrupted_gradient_fails_check():
    res = check_gradients(seeds=range(1), hidden=3, input_dim=3, seq_len=2,
                          n_labels=3, layers=1, bidirectional=False,
                          corrupt=True)
    assert not res.passed


def _stretch_rows(cfg, seed, rows):
    """A fresh init's theta, and `rows` distinct variants of each of its
    stretches, as (offset, block) pairs."""
    theta = init_params(cfg, derive_rng(seed, 0)).theta
    noise = derive_rng(seed, 1).normal(0.0, 0.1, size=(rows, theta.size))
    return theta, [(start, theta[start:stop] + noise[:, start:stop])
                   for start, stop in Tagger(cfg, theta=theta).stretches]


def _one_row(theta, start, row):
    """A copy of theta with the stretch at `start` replaced by `row`."""
    one = theta.copy()
    one[start:start + len(row)] = row
    return one


def test_stretches_are_each_cell_then_the_projection():
    tagger = Tagger(_config(layers=2, hidden=2, bidirectional=True))
    items = tagger.param_items()
    offsets = np.cumsum([0] + [arr.size for _, arr in items])
    # W, U and b of each of the four cells, then the projection's W and b
    firsts, ends = [0, 3, 6, 9, 12], [3, 6, 9, 12, 14]
    assert tagger.stretches == [(offsets[a], offsets[b])
                                for a, b in zip(firsts, ends)]
    assert [items[a][0] for a in firsts] == [
        "layer0.fwd.W", "layer0.bwd.W", "layer1.fwd.W", "layer1.bwd.W",
        "proj.W"]


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_row_tagger_arrays_are_views_of_each_row(cell):
    cfg = _config(layers=2, cell=cell, bidirectional=True)
    theta, blocks = _stretch_rows(cfg, 20, 3)
    items = Tagger(cfg).param_items()
    offsets = np.cumsum([0] + [arr.size for _, arr in items])
    # each array's part of the tagger, in order: layer0, layer1 or proj
    parts = [name.split(".")[0] for name, _ in items]
    order = list(dict.fromkeys(parts))
    for start, block in blocks:
        rows = Tagger(cfg, theta=theta, rows=(start, block))
        assert rows.theta is theta and rows.rows[1] is block
        stop = start + block.shape[1]
        stretch_part = order.index(parts[list(offsets).index(start)])
        for k in range(3):
            one = Tagger(cfg, theta=_one_row(theta, start, block[k]))
            for (name, arr), (_, want), offset, part in zip(
                    rows.param_items(), one.param_items(), offsets, parts):
                if start <= offset < stop:  # inside the stretch: K rows
                    assert np.shares_memory(arr, block), name
                    assert np.array_equal(arr[k], want), name
                elif order.index(part) > stretch_part:
                    # after the stretch's layer: the one row, K times over
                    assert arr.shape == (3,) + want.shape, name
                    assert not arr.flags.writeable, name
                    assert np.shares_memory(arr, theta), name
                    assert np.array_equal(arr[k], want), name
                else:
                    assert np.shares_memory(arr, theta), name
                    assert np.array_equal(arr, want), name


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_row_tagger_runs_only_its_stretch_and_later_cells_wide(cell,
                                                               monkeypatch):
    # one-row cells before the stretch, and beside it in its own layer,
    # keep a row tagger as fast as the one-row oracle it batches
    cfg = _config(layers=2, cell=cell, bidirectional=True)
    theta, blocks = _stretch_rows(cfg, 24, 3)
    x = derive_rng(24, 2).uniform(-1, 1, size=(5, 4))
    wide = []
    run_cell = model._run_cell

    def counting(params, *args, **kwargs):
        wide[-1] += params.W.ndim == 3
        return run_cell(params, *args, **kwargs)

    monkeypatch.setattr(model, "_run_cell", counting)
    for start, block in blocks:
        wide.append(0)
        forward(Tagger(cfg, theta=theta, rows=(start, block)), x)
    # layer0.fwd, layer0.bwd, layer1.fwd, layer1.bwd, then the projection
    assert wide == [3, 3, 1, 1, 0]


def test_tagger_rejects_a_theta_of_the_wrong_layout():
    cfg = _config()
    n = Tagger(cfg).theta.size
    # a (K, n) block of whole vectors is not a theta
    for theta in (np.zeros(n + 1), np.zeros((2, 2, n)), np.zeros(n, np.float32),
                  np.zeros((n, 2)).T, np.zeros((2, n)), np.zeros((n, 2)).T[0]):
        with pytest.raises(ValueError, match="theta"):
            Tagger(cfg, theta=theta)


def test_row_block_is_exactly_one_stretch():
    cfg = _config(layers=2, hidden=2, bidirectional=True)
    tagger = Tagger(cfg)
    n = tagger.theta.size
    for start, stop in tagger.stretches:
        Tagger(cfg, rows=(start, np.zeros((2, stop - start))))
    (a, b), (_, c) = tagger.stretches[:2]
    # runs of whole stretches, parts of one, and blocks across a boundary
    for start, stop in ((a, c), (b, n), (0, n), (a, b - 1), (a + 1, b),
                        (a, b + 1), (b - 1, c), (n - 1, n)):
        with pytest.raises(ValueError, match="row block.*one stretch"):
            Tagger(cfg, rows=(start, np.zeros((2, stop - start))))
    for start, block in ((0, np.zeros((0, n))), (0, np.zeros((2, 0))),
                         (-1, np.zeros((2, 1))), (1, np.zeros((2, n))),
                         (0, np.zeros(n)), (0, np.zeros((2, n), np.float32)),
                         (0, np.zeros((n, 2)).T)):
        with pytest.raises(ValueError, match="row block"):
            Tagger(cfg, rows=(start, block))


def test_row_forward_matches_one_row_forwards_with_dropout():
    cfg = _config(layers=2, bidirectional=True, dropout=0.5)
    theta, blocks = _stretch_rows(cfg, 21, 5)
    x = derive_rng(21, 2).uniform(-1, 1, size=(6, 4))
    for start, block in blocks:
        probs, _ = forward(Tagger(cfg, theta=theta, rows=(start, block)), x,
                           rng=derive_rng(21, 3))
        assert probs.shape == (6, 5, 3)
        for k in range(5):
            one = Tagger(cfg, theta=_one_row(theta, start, block[k]))
            want, _ = forward(one, x, rng=derive_rng(21, 3))
            # the masks matter, and every row got the one-row draw
            assert not np.allclose(want, forward(one, x)[0])
            assert np.array_equal(probs[:, k], want)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_stretch_row_losses_equal_one_row_losses(cell, bidirectional):
    # three layers put a stretch before, between and after others; from
    # eight terms on, numpy's sum is no longer a plain left-to-right loop
    cfg = _config(layers=3, cell=cell, bidirectional=bidirectional,
                  dropout=0.5)
    theta, blocks = _stretch_rows(cfg, 25, 4)
    x = derive_rng(25, 2).uniform(-1, 1, size=(9, 4))
    gold = [0, 2, 1, 1, 0, 2, 2, 1, 0]
    assert len(blocks) == 3 * len(cfg.directions) + 1
    for start, block in blocks:
        losses = model.sentence_loss(
            Tagger(cfg, theta=theta, rows=(start, block)), x, gold,
            rng=derive_rng(25, 3))
        assert losses.shape == (4,)
        for k in range(4):
            one = Tagger(cfg, theta=_one_row(theta, start, block[k]))
            assert losses[k] == model.sentence_loss(one, x, gold,
                                                    rng=derive_rng(25, 3))


def test_row_tagger_takes_one_sentence_and_is_neither_trained_nor_saved():
    cfg = _config()
    theta, blocks = _stretch_rows(cfg, 22, 2)
    for start, block in blocks:
        rows = Tagger(cfg, theta=theta, rows=(start, block))
        with pytest.raises(DimensionMismatch, match="one sentence"):
            forward(rows, np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="one-row tagger"):
            loss_and_gradients(rows, np.zeros((3, 4)), [0, 1, 2])
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="one-row tagger"):
            save(rows, buf)
        assert not buf.getvalue()


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_batched_finite_differences_match_the_loop(cell, bidirectional):
    cfg = _config(layers=2, hidden=6, cell=cell, bidirectional=bidirectional,
                  dropout=0.5)
    tagger = init_params(cfg, derive_rng(23, 0))
    # some stretch takes more than one block, and its last block is partial
    assert any(stop - start > numerics.FD_BLOCK
               and (stop - start) % numerics.FD_BLOCK
               for start, stop in tagger.stretches)
    x = derive_rng(23, 1).uniform(-1, 1, size=(4, 4))
    gold = [0, 2, 1, 1]
    batched = np.concatenate([numerics.finite_diff_grad(
        lambda block, start=start: model.sentence_loss(
            Tagger(cfg, theta=tagger.theta, rows=(start, block)), x, gold,
            rng=derive_rng(23, 2)),
        tagger.theta[start:stop]) for start, stop in tagger.stretches])
    loop = oracle.finite_diff_grad_loop(
        lambda _: model.sentence_loss(tagger, x, gold, rng=derive_rng(23, 2)),
        tagger.theta)
    assert np.abs(loop).max() > 1e-3
    # each perturbed row's loss is the one-row loss to the bit
    assert np.array_equal(batched, loop)


def test_gradient_check_evaluates_the_production_loss_per_block(monkeypatch):
    calls = []
    production = model.sentence_loss

    def counting(tagger, *args, **kwargs):
        calls.append((tagger.rows[0], tagger.rows[1].shape))
        return production(tagger, *args, **kwargs)

    monkeypatch.setattr(model, "sentence_loss", counting)
    assert check_gradients(seeds=[0]).passed
    stretches = Tagger(TaggerConfig(labels=["L0", "L1", "L2", "L3"],
                                    input_dim=10, hidden=8)).stretches
    # per stretch: ceil(size / 64) blocks of up to 64 probed elements
    assert len(calls) == 10 + 10 + 13 + 13 + 2 == 48
    want = []
    for start, stop in stretches:
        for first in range(start, stop, numerics.FD_BLOCK):
            k = min(numerics.FD_BLOCK, stop - first)
            want.append((start, (2 * k, stop - start)))
    assert calls == want


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["deepcopy", "pickle"])
def test_copies_tile_their_own_theta(clone):
    tagger = init_params(_config(layers=2, bidirectional=True),
                         derive_rng(24, 0), extra={"pipeline": [1, "a"]})
    twin = clone(tagger)
    assert not np.shares_memory(twin.theta, tagger.theta)
    assert twin.theta.tobytes() == tagger.theta.tobytes()
    assert all(np.shares_memory(arr, twin.theta) for _, arr in twin.param_items())
    _assert_arrays_tile_theta(twin)
    assert twin.config == tagger.config and twin.extra == tagger.extra


def test_init_params_bounds_and_determinism():
    cfg = _config(layers=2, bidirectional=True, hidden=6, input_dim=5)
    t1 = init_params(cfg, derive_rng(15, 1))
    t2 = init_params(cfg, derive_rng(15, 1))
    for (n1, a1), (n2, a2) in zip(t1.param_items(), t2.param_items()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
        assert np.all(np.isfinite(a1))
    cell = t1.layers[0]["fwd"]
    assert np.all(np.abs(cell.W) <= np.sqrt(3.0 / 6))
    assert np.all(np.abs(cell.U) <= np.sqrt(3.0 / 5))
    assert np.all(gate(cell, "f")[2] == 1.0)
    assert all(np.all(gate(cell, g)[2] == 0.0) for g in "ioc")
    t3 = init_params(cfg, derive_rng(16, 1))
    assert not np.array_equal(t1.proj_w, t3.proj_w)


def test_dropout_applies_inverted_mask_to_layer_output():
    # train-mode output is exactly the infer-mode output times a kept/keep
    # mask drawn from the training rng
    cfg = _config(dropout=0.5, hidden=8, bidirectional=True)
    tagger = init_params(cfg, derive_rng(17, 1))
    x = derive_rng(17, 2).uniform(-1, 1, size=(3, 4))
    _, infer_cache = forward(tagger, x)
    baseline = infer_cache["layers"][0]["output"]
    _, train_cache = forward(tagger, x, rng=derive_rng(17, 3))
    replay = (derive_rng(17, 3).random(baseline.shape) < 0.5) / 0.5
    assert np.array_equal(train_cache["layers"][0]["mask"], replay)
    assert np.array_equal(train_cache["layers"][0]["output"],
                          baseline * replay)


def test_dropout_mask_expectation_matches_unmasked():
    # inverted dropout: over many masks the expected masked activation is
    # the unmasked activation (single activation, 10^4 masks, 2% relative)
    activation = 0.7
    masks = (derive_rng(17, 4).random(10_000) < 0.5) / 0.5
    mean = float(np.mean(masks * activation))
    assert abs(mean - activation) / activation < 0.02


def test_save_load_roundtrip_bitwise():
    cfg = _config(layers=2, bidirectional=True, dropout=0.3)
    tagger = init_params(cfg, derive_rng(18, 1),
                         extra={"note": "xyz", "k": [1, 2]})
    buf = io.BytesIO()
    save(tagger, buf)
    buf.seek(0)
    loaded = load(buf)
    assert loaded.config == tagger.config
    assert loaded.extra == tagger.extra
    for (n1, a1), (n2, a2) in zip(tagger.param_items(), loaded.param_items()):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_load_bad_magic():
    tagger = init_params(_config(), derive_rng(19, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = bytearray(buf.getvalue())
    data[:4] = b"NOPE"
    with pytest.raises(BadMagic):
        load(io.BytesIO(bytes(data)))


def test_load_unsupported_version():
    tagger = init_params(_config(), derive_rng(20, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = bytearray(buf.getvalue())
    data[4] = 99
    with pytest.raises(UnsupportedVersion):
        load(io.BytesIO(bytes(data)))


def test_load_truncated_mid_matrix():
    tagger = init_params(_config(), derive_rng(21, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = buf.getvalue()
    with pytest.raises(TruncatedFile):
        load(io.BytesIO(data[:len(data) // 2]))


def test_load_header_cut_short():
    with pytest.raises(TruncatedFile, match="header cut short"):
        load(io.BytesIO(model.MAGIC + bytes(7)))


def test_load_trailing_bytes_under_a_valid_checksum():
    tagger = init_params(_config(), derive_rng(21, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    body = buf.getvalue()[:-8] + bytes(3)
    with pytest.raises(model.TrailingBytes, match="3 unexpected"):
        load(io.BytesIO(body + hashlib.sha256(body).digest()[:8]))


def test_load_flipped_payload_byte():
    tagger = init_params(_config(), derive_rng(22, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = bytearray(buf.getvalue())
    data[-20] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        load(io.BytesIO(bytes(data)))


def test_load_every_bit_flip_raises_named_error():
    # exhaustive single-bit corruption: every flip must surface as one of
    # the loader's named errors, never as a raw JSON/Unicode/Key error
    tagger = init_params(_config(hidden=1, input_dim=1), derive_rng(24, 1),
                         extra={"features": ["word"], "pos_tags": None})
    buf = io.BytesIO()
    save(tagger, buf)
    data = buf.getvalue()
    named = (model.BadMagic, model.UnsupportedVersion, model.TruncatedFile,
             model.BadConfigRecord, model.ChecksumMismatch,
             model.TrailingBytes)
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(named):
            load(io.BytesIO(bytes(flipped)))


@pytest.mark.parametrize("field, value, message", [
    pytest.param(field, 10 ** 30, None, id=field)
    for field in ("hidden", "input_dim", "layers")] + [
    # hundreds of PiB: past any address space, whatever the overcommit
    pytest.param("hidden", 10 ** 8, None, id="hidden-1e8"),
    # mistyped fields of a one-layer, three-label model: each file holds as
    # many parameters as its record describes
    pytest.param("dropout", False, "dropout must be", id="dropout-false"),
    pytest.param("labels", "OBI", "labels must be", id="labels-str"),
    pytest.param("labels", ["O", 3, "I-X"], "labels must be",
                 id="labels-int-item"),
    pytest.param("layers", True, "layers must be", id="layers-true")])
def test_load_absurd_size_in_record_is_bad_config_record(field, value,
                                                         message):
    # a record whose tagger cannot be allocated is refused as a record, not
    # with the allocation's own error (nor, for layers, a walk over 10**30);
    # so is a record with a field of the wrong type, which names the field
    tagger = init_params(_config(), derive_rng(26, 1))
    assert tagger.config.layers == 1 and len(tagger.config.labels) == 3
    record = {"config": {**asdict(tagger.config), field: value},
              "extra": {}}
    with pytest.raises(model.BadConfigRecord, match=message):
        load(_container(json.dumps(record), tagger.theta))


def _container(record, theta):
    """A version-1 model file of the JSON text `record` and the parameters
    `theta`, with a valid checksum."""
    blob = record.encode("utf-8")
    body = (model.MAGIC + model.FORMAT_VERSION.to_bytes(4, "little")
            + len(blob).to_bytes(4, "little") + blob + theta.tobytes())
    return io.BytesIO(body + hashlib.sha256(body).digest()[:8])


@pytest.mark.parametrize("extra, message", [
    ("[" * 10 ** 4 + "]" * 10 ** 4, "maximum recursion depth"),
    ("[]", "extra must be dict, got \\[\\]"),
    ('"pipeline"', "extra must be dict, got 'pipeline'"),
    ("null", "extra must be dict, got None")],
    ids=["deep-nesting", "list", "string", "null"])
def test_load_refuses_a_deep_record_and_a_non_object_extra(extra, message):
    tagger = init_params(_config(), derive_rng(27, 1))
    config = json.dumps(asdict(tagger.config))
    record = f'{{"config": {config}, "extra": {extra}}}'
    with pytest.raises(model.BadConfigRecord, match=message):
        load(_container(record, tagger.theta))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_load_refuses_non_finite_parameters(value):
    # one parameter, then all of them
    tagger = init_params(_config(), derive_rng(28, 1))
    for bad in (slice(5, 6), slice(None)):
        tagger.theta[bad] = value
        buf = io.BytesIO()
        save(tagger, buf)
        with pytest.raises(model.NonFiniteParameters, match="NaN or infinite"):
            load(io.BytesIO(buf.getvalue()))


def test_container_stores_lstm_gates_in_v1_order():
    # v1 files hold each LSTM block gate by gate in the order i, f, c, o
    cfg = _config(hidden=2, input_dim=3)
    tagger = init_params(cfg, derive_rng(25, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = buf.getvalue()
    blob_len = int.from_bytes(data[8:12], "little")
    stored = np.frombuffer(data, dtype="<f8", count=8 * 2,
                           offset=12 + blob_len).reshape(8, 2)
    cell = tagger.layers[0]["fwd"]
    for k, name in enumerate("ifco"):
        assert np.array_equal(stored[2 * k:2 * k + 2], gate(cell, name)[0])


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_container_parameter_section_is_theta(cell):
    tagger = init_params(_config(cell=cell, layers=2, bidirectional=True),
                         derive_rng(29, 1))
    buf = io.BytesIO()
    save(tagger, buf)
    data = buf.getvalue()
    blob_len = int.from_bytes(data[8:12], "little")
    assert data[12 + blob_len:-8] == tagger.theta.astype("<f8").tobytes()


def test_predict_indices_deterministic():
    tagger = init_params(_config(layers=2, bidirectional=True),
                         derive_rng(23, 1))
    x = derive_rng(23, 2).uniform(-1, 1, size=(5, 4))
    assert model.predict_indices(tagger, x) == model.predict_indices(tagger, x)
