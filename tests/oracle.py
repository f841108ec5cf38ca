"""Slow references for tests to compare seqtag against: the recurrent
cells evaluated gate by gate with shape-checked dense operations, exactly
as the equations read; BPTT and finite differences as per-step and
per-element loops; feature assembly as per-token one-hot vectors; and
entity spans as every (type, start, end) triple tested in full.
"""

import re
from dataclasses import dataclass

import numpy as np

from seqtag import features
from seqtag.numerics import DimensionMismatch

GATE_ORDER = ("i", "f", "c", "o")  # row-block order of a stacked LSTM cell


def sigmoid(x):
    """Element-wise logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def matvec(m, v):
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise DimensionMismatch(
            f"matvec: matrix {m.shape} does not conform with vector {v.shape}")
    return m @ v


def hadamard(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"hadamard: {a.shape} vs {b.shape}")
    return a * b


def gate(params, name):
    """(W, U, b) of one LSTM gate: views into the stacked cell parameters."""
    H = params.hidden
    k = GATE_ORDER.index(name)
    rows = slice(k * H, (k + 1) * H)
    return params.W[rows], params.U[rows], params.b[rows]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden):
        return cls(np.zeros(hidden), np.zeros(hidden))


def lstm_step(params, x_t, prev):
    """One LSTM step, gate by gate; returns the new LstmState."""
    def pre(name):
        W, U, b = gate(params, name)
        return matvec(W, prev.h) + matvec(U, x_t) + b

    i = sigmoid(pre("i"))
    f = sigmoid(pre("f"))
    g = np.tanh(pre("c"))
    c = hadamard(f, prev.c) + hadamard(i, g)
    o = sigmoid(pre("o"))
    h = hadamard(o, np.tanh(c))
    return LstmState(h, c)


def rnn_step(params, x_t, prev_h):
    """One vanilla-RNN step; returns the new hidden state."""
    return np.tanh(matvec(params.W, prev_h) + matvec(params.U, x_t) + params.b)


def backprop_cell(params, cache, dstates, dparams):
    """Reference BPTT for one cell: the per-step loop, each gate's local
    derivative taken inside the loop and dW summed as outer products.
    Accumulates into the arrays of the CellParams `dparams` and returns the
    input gradients."""
    inputs, states = cache[:2]
    lstm = params.kind == "lstm"
    if lstm:
        gates, cells, tanhc = cache[2:]
    T, H = states.shape
    W = params.W
    da_all = np.empty((T, len(params.b)))
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    dW = np.zeros_like(W)
    for t in range(T - 1, -1, -1):
        dh = dstates[t] + dh_next
        h_prev = states[t - 1] if t > 0 else np.zeros(H)
        da = da_all[t]
        if lstm:
            i, f, g = gates[t, :H], gates[t, H:2 * H], gates[t, 2 * H:3 * H]
            o = gates[t, 3 * H:]
            tc = tanhc[t]
            c_prev = cells[t - 1] if t > 0 else np.zeros(H)
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            da[:H] = dc * g * i * (1.0 - i)
            da[H:2 * H] = dc * c_prev * f * (1.0 - f)
            da[2 * H:3 * H] = dc * i * (1.0 - g * g)
            da[3 * H:] = do * o * (1.0 - o)
            dc_next = dc * f
        else:
            h = states[t]
            da[:] = dh * (1.0 - h * h)
        dW += np.outer(da, h_prev)
        dh_next = W.T @ da
    dparams.W += dW
    dparams.U += da_all.T @ inputs
    dparams.b += da_all.sum(axis=0)
    return da_all @ params.U


def finite_diff_grad_loop(f, params, epsilon=1e-5):
    """Reference central differences, one element at a time: `params` is
    perturbed in place and restored, and scalar f (which may close over it
    or over views of it) is evaluated twice per element. Returns the
    gradient in the shape of `params`."""
    grad = np.zeros_like(params)
    flat = params.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = f(params)
        flat[i] = orig - epsilon
        lo = f(params)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * epsilon)
    return grad


def encode(encoder, tag):
    """One-hot vector of `tag` over a TagEncoder's tagset plus UNK."""
    v = np.zeros(encoder.width)
    v[encoder.index.get(tag, encoder.width - 1)] = 1.0
    return v


def case_feature(surface):
    """One-hot vector of the surface's case category."""
    v = np.zeros(len(features.CASE_CATEGORIES))
    v[features.case_category(surface)] = 1.0
    return v


def regex_features(sentence, rules):
    """Per-token binary vectors, one slot per rule. A rule with scope prevK
    fires on token t when token t-K exists and its surface matches the
    pattern in full."""
    out = np.zeros((len(sentence), rules.width))
    surfaces = [t.surface for t in sentence]
    offsets = {"self": 0, "prev1": 1, "prev2": 2}
    for j, rule in enumerate(rules.rules):
        compiled = re.compile(rule.pattern)
        k = offsets[rule.scope]
        for t in range(len(surfaces)):
            if t - k < 0:
                continue
            if compiled.fullmatch(surfaces[t - k]):
                out[t, j] = 1.0
    return out


def word_vector(table, surface):
    """The word block of one token: for a one-hot table, the slot of the
    surface in the table's vocabulary order, or the UNK slot after them all;
    else the table's vector."""
    if table.mode != "onehot":
        return table.lookup(surface)
    words = list(table.vocab)
    v = np.zeros(len(words) + 1)
    v[words.index(surface) if surface in words else len(words)] = 1.0
    return v


def assemble_reference(extractor, sentence):
    """T x D inputs built token by token and concatenated block by block
    in the order [word | pos | chunk | case | regex]."""
    config = extractor.config
    blocks = [np.stack([word_vector(extractor.table, t.surface)
                        for t in sentence])]
    if config.has(features.POS):
        blocks.append(np.stack([encode(extractor.pos_encoder, t.pos)
                                for t in sentence]))
    if config.has(features.CHUNK):
        blocks.append(np.stack([encode(extractor.chunk_encoder, t.chunk)
                                for t in sentence]))
    if config.has(features.CASE):
        blocks.append(np.stack([case_feature(t.surface) for t in sentence]))
    if config.has(features.REGEX) and extractor.rules is not None:
        blocks.append(regex_features(sentence, extractor.rules))
    return np.concatenate(blocks, axis=1)


def enumerate_spans_by_triple(labels):
    """Every (type, start, end) triple tested against the whole definition
    of a maximal B-X (I-X)* run: B-X at start, I-X at every position in
    (start, end], and no I-X right after end. Cubic in the length."""
    spans = set()
    n = len(labels)
    types = {lab.split("-", 1)[1] for lab in labels if lab != "O"}
    for etype in types:
        b, i = "B-" + etype, "I-" + etype
        for start in range(n):
            if labels[start] != b:
                continue
            for end in range(start, n):
                inside = all(labels[k] == i for k in range(start + 1, end + 1))
                closed = end + 1 == n or labels[end + 1] != i
                if inside and closed:
                    spans.add((etype, start, end))
    return spans
