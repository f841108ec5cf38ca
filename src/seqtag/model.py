"""The recurrent tagger: LSTM and vanilla-RNN cells, unidirectional and
bidirectional layers, layer stacking with inverted dropout, a per-token
softmax classifier, and hand-derived analytic gradients for all of it
(backpropagation through time, batch size 1, no padding). Inference also
runs time-major batches of equal-length sentences through the same runner.

A layer is a {direction: CellParams} dict. One runner (_run_layer) and its
BPTT (_backprop_layer) do all of its direction handling: reversal,
re-alignment, concatenation and the sum of the input gradients.

The LSTM cell stores its four gates stacked row-wise in the order
(i, f, c, o), which the runner, its BPTT and the model file share: W (4H x
H) acts on the previous hidden state, U (4H x D) on the current input, b is
a 4H bias. With a = W h_prev + U x + b split into the H-blocks a_i, a_f,
a_c, a_o,

    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)
    c = f * c_prev + i * tanh(a_c)
    h = o * tanh(c)

Stacking makes each step one matmul, and the input side U x is computed for
all steps before the time loop (Appleyard et al., 2016, arXiv 1604.01946).
The backward pass hoists work the same way: every gate's local derivative
is computed for all steps before its time loop, which then carries only
the dh/dc recurrence, and dW, dU and db are single matmuls (or a sum) over
all steps after it. A Tagger's parameters are views, in param_items()
order, into one flat vector `theta`, and a gradient is a vector of the same
layout, whose blocks a Tagger built on it names: an SGD update and a
checkpoint copy each act on one vector. A row tagger holds K variants of one
stretch of `theta` (one cell's parameters, or the projection's) and runs all
K through the same forward pass at once: the cells before the stretch and
beside it in its layer run once, and the rest K rows wide. That is how the
finite-difference oracle evaluates its perturbed copies of `theta`.

Model files use a small versioned binary container (magic "SQTG") whose
parameter section is `theta` itself; see save()/load().
"""

import hashlib
import json
import os
import reprlib
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .numerics import DimensionMismatch

MAGIC = b"SQTG"
FORMAT_VERSION = 1

GATE_COUNT = {"lstm": 4, "rnn": 1}


class ModelFormatError(ValueError):
    pass


class BadMagic(ModelFormatError):
    pass


class UnsupportedVersion(ModelFormatError):
    pass


class TruncatedFile(ModelFormatError):
    pass


class ChecksumMismatch(ModelFormatError):
    pass


class BadConfigRecord(ModelFormatError):
    """The config record is not UTF-8 JSON describing a valid model."""


class TrailingBytes(ModelFormatError):
    pass


class NonFiniteParameters(ModelFormatError):
    """A stored parameter is NaN or infinite."""


class EmptySequence(ValueError):
    pass


class CellParams:
    """Parameters of one recurrent cell with the gates stacked row-wise:
    hidden-side W (gH x H), input-side U (gH x D) and bias b (gH). An LSTM
    has g = 4 gates in the order (i, f, c, o); a vanilla RNN, h = tanh(W
    h_prev + U x + b), has g = 1."""

    def __init__(self, hidden, input_dim, kind="lstm", flat=None):
        """All-zero parameters; with `flat`, a vector of size() elements, W,
        U and b are views into it in that order. A (K, size()) `flat` holds
        K parameter rows, and W, U and b then have a leading K axis."""
        rows = GATE_COUNT[kind] * hidden
        self.kind = kind
        self.hidden = hidden
        self.input_dim = input_dim
        if flat is None:
            flat = np.zeros(self.size(hidden, input_dim, kind))
        lead = flat.shape[:-1]
        self.W = flat[..., :rows * hidden].reshape(lead + (rows, hidden))
        self.U = flat[..., rows * hidden:-rows].reshape(lead + (rows, input_dim))
        self.b = flat[..., -rows:]

    @staticmethod
    def size(hidden, input_dim, kind="lstm"):
        return GATE_COUNT[kind] * hidden * (hidden + input_dim + 1)

    @classmethod
    def init(cls, rng, hidden, input_dim, kind="lstm", forget_bias=1.0):
        """Weights uniform in +-sqrt(3/fan_in), W drawn before U, each in
        the cell's gate order; biases zero except the LSTM forget gate's."""
        p = cls(hidden, input_dim, kind)
        bound_w, bound_u = np.sqrt(3.0 / hidden), np.sqrt(3.0 / input_dim)
        p.W[...] = rng.uniform(-bound_w, bound_w, p.W.shape)
        p.U[...] = rng.uniform(-bound_u, bound_u, p.U.shape)
        if kind == "lstm":
            p.b[hidden:2 * hidden] = forget_bias
        return p

    def items(self):
        return [("W", self.W), ("U", self.U), ("b", self.b)]


def _run_cell(params, inputs, bptt=False):
    """Run a cell over inputs in their given order: one sequence (T x D) or
    a time-major batch of equal-length sequences (T x B x D). Returns the
    states (T x H, or T x B x H) and, with bptt, the cache _backprop_cell
    needs (None without). The input-side projection is hoisted out of the
    time loop, so each step costs one matmul.

    Cell parameters with a leading axis of K rows (W of K x gH x H) run K
    cells at once over one sequence, shared by all rows (T x D) or one per
    row (T x K x D), and return T x K x H states; each step is then one
    stacked matmul (K x 1 x H) @ (K x H x gH)."""
    T = len(inputs)
    if T == 0:
        raise EmptySequence("cannot run a recurrent layer over an empty sequence")
    inputs = np.asarray(inputs, dtype=np.float64)
    H = params.hidden
    if params.W.ndim == 3:
        K, gH = params.b.shape
        if inputs.ndim == 2:  # shared inputs: one 2-D gemm over all rows
            xu = inputs @ params.U.reshape(K * gH, -1).T
        else:  # one (T x D) @ (D x gH) product per row
            xu = _row_matmul(inputs, params.U)
        # (T, K, 1, gH): each row's step is a 1 x gH product
        xu = xu.reshape(T, K, 1, gH) + params.b[:, None]
        WT = params.W.transpose(0, 2, 1)
        out_shape = (T, K, H)
    else:
        # the input side as one 2-D product over all steps and rows: numpy's
        # stacked 3-D matmul is several times slower
        xu = inputs.reshape(-1, inputs.shape[-1]) @ params.U.T + params.b
        xu = xu.reshape(inputs.shape[:-1] + (-1,))  # (T, [B,] gH)
        # a contiguous W^T speeds up the multi-row product; for one row the
        # view keeps the bits of W @ h
        WT = params.W.T if inputs.ndim == 2 else np.ascontiguousarray(params.W.T)
        out_shape = inputs.shape[:-1] + (H,)
    states = np.empty(xu.shape[:-1] + (H,))
    h = np.zeros(xu.shape[1:-1] + (H,))
    if params.kind == "rnn":
        for t in range(T):
            h = np.tanh(h @ WT + xu[t])
            states[t] = h
        return states.reshape(out_shape), (inputs, states) if bptt else None
    if bptt:
        gates = np.empty(xu.shape)  # i, f, o after sigmoid; g after tanh
        cells = np.empty(states.shape)
        tanhc = np.empty(states.shape)
    c = np.zeros_like(h)
    with np.errstate(over="ignore"):  # saturated exp underflows to 0/1
        for t in range(T):
            a = h @ WT + xu[t]
            act = 1.0 / (1.0 + np.exp(-a))
            act[..., 2 * H:3 * H] = np.tanh(a[..., 2 * H:3 * H])
            i, f = act[..., :H], act[..., H:2 * H]
            g, o = act[..., 2 * H:3 * H], act[..., 3 * H:]
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            if bptt:
                gates[t] = act
                cells[t] = c
                tanhc[t] = tc
            states[t] = h
    return (states.reshape(out_shape),
            (inputs, states, gates, cells, tanhc) if bptt else None)


def _row_matmul(inputs, weights):
    """Per-row x @ w.T of T x K x D inputs and K x R x D weights, as
    T x K x R: the products of one-row taggers, row by row."""
    return (inputs.transpose(1, 0, 2)
            @ weights.transpose(0, 2, 1)).transpose(1, 0, 2)


def _backprop_cell(params, cache, dstates, dparams, input_grads=True):
    """BPTT for one cell over one direction. dstates[t] is the gradient
    arriving at the hidden state emitted at step t (in the cell's own time
    order). Writes the W, U and b gradients into the arrays of the
    CellParams `dparams`, and returns the input gradients in the same order
    (None without input_grads).

    Every per-step local derivative is computed for all T steps before the
    time loop, so the loop only carries the dh/dc recurrence: one
    elementwise multiply over the stacked gates (the o block then takes dh
    in place of dc) and one `da @ W` per step. dW = da[1:]^T h[:-1], dU and
    db are computed over all steps after the loop."""
    inputs, states = cache[:2]
    T, H = states.shape
    W = params.W
    if params.kind == "lstm":
        gates, cells, tanhc = cache[2:]
        i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
        # da = factor * (dc, dc, dc, dh) over the gate blocks (i, f, c, o)
        factor = np.empty((T, 4, H))
        factor[:, 0] = g * (i * (1.0 - i))
        factor[0, 1] = 0.0  # c_prev is zero before the first step
        factor[1:, 1] = cells[:-1] * (f[1:] * (1.0 - f[1:]))
        factor[:, 2] = i * (1.0 - g * g)
        factor[:, 3] = tanhc * (o * (1.0 - o))
        dc_dh = o * (1.0 - tanhc * tanhc)
        da = np.empty((T, 4, H))
        da_rows = da.reshape(T, 4 * H)
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in range(T - 1, -1, -1):
            dh = dstates[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            np.multiply(factor[t], dc, out=da[t])
            np.multiply(factor[t, 3], dh, out=da[t, 3])
            if t:
                dc_next = dc * f[t]
                dh_next = da_rows[t] @ W
        da = da_rows
    else:
        dtanh = 1.0 - states * states
        da = np.empty((T, H))
        dh_next = np.zeros(H)
        for t in range(T - 1, -1, -1):
            np.multiply(dstates[t] + dh_next, dtanh[t], out=da[t])
            if t:
                dh_next = da[t] @ W
    np.matmul(da[1:].T, states[:-1], out=dparams.W)
    np.matmul(da.T, inputs, out=dparams.U)
    np.sum(da, axis=0, out=dparams.b)
    return da @ params.U if input_grads else None


def _run_layer(cells, inputs, bptt=False):
    """Run each cell of a layer's {direction: CellParams} `cells` over
    `inputs` from a zero state, "bwd" from the last position to the first.
    Returns (their states aligned to input positions and concatenated in
    dict order, {direction: cache, None without bptt}). Beside a cell of K
    parameter rows over one sentence, a one-row cell's T x H states are
    repeated for every row."""
    outputs, caches = [], {}
    for d, params in cells.items():
        step = -1 if d == "bwd" else 1
        states, caches[d] = _run_cell(params, inputs[::step], bptt)
        outputs.append(states[::step])
    if outputs[0].ndim != outputs[-1].ndim:
        wide = max(outputs, key=np.ndim).shape
        outputs = [o if o.ndim == len(wide) else np.broadcast_to(o[:, None], wide)
                   for o in outputs]
    return np.concatenate(outputs, axis=-1), caches


def _backprop_layer(cells, caches, dout, dcells, input_grads=True):
    """BPTT through _run_layer from `dout`, the gradient at its output:
    writes each direction's gradients into that CellParams of `dcells`, and
    returns the directions' input gradients summed in dict order (None
    without input_grads)."""
    dinputs = None
    for k, (d, params) in enumerate(cells.items()):
        step = -1 if d == "bwd" else 1
        H = params.hidden
        dx = _backprop_cell(params, caches[d], dout[:, k * H:(k + 1) * H][::step],
                            dcells[d], input_grads)
        if input_grads:
            dinputs = dx[::step] if dinputs is None else dinputs + dx[::step]
    return dinputs


def run_layer(cells, inputs):
    """Hidden-state sequence of one layer, a {direction: CellParams} dict
    as a tagger holds, over `inputs`: "fwd" processes positions first to
    last, "bwd" last to first; both start from a zero state, and the states
    are aligned to input positions and concatenated in dict order."""
    if not cells or not set(cells) <= {"fwd", "bwd"}:
        raise ValueError(f"a layer's directions must be 'fwd' or 'bwd', "
                         f"got {list(cells)}")
    return _run_layer(cells, np.asarray(inputs, dtype=np.float64))[0]


def _check_field(name, value, expected, allowed=None, error=ValueError):
    """The one type rule of TaggerConfig and the CLI's JSON records: raise
    `error`, naming `name`, unless `value` is of type `expected` (str, int,
    float, bool, dict, list or list[str]; a bool is no number, an int stands
    for a float) and, if given, one of `allowed`. The message shows the
    value through reprlib, cut short, so that a deeply nested one prints."""
    if expected == list[str]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, bool) == (expected is bool) and isinstance(
            value, (int, float) if expected is float else expected)
    if not ok:
        what = "a list of str" if expected == list[str] else expected.__name__
        raise error(f"{name} must be {what}, got {reprlib.repr(value)}")
    if allowed is not None and value not in allowed:
        raise error(f"{name} must be one of {', '.join(allowed)}, "
                    f"got {value!r}")


@dataclass
class TaggerConfig:
    labels: list[str]
    input_dim: int
    hidden: int = 100
    layers: int = 2
    cell: str = "lstm"
    bidirectional: bool = True
    dropout: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name), f.type,
                         GATE_COUNT if f.name == "cell" else None)
        for name in ("layers", "hidden", "input_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not self.labels:
            raise ValueError("label alphabet is empty")

    @property
    def directions(self):
        return ("fwd", "bwd") if self.bidirectional else ("fwd",)

    @property
    def layer_output_dim(self):
        return self.hidden * (2 if self.bidirectional else 1)


class Tagger:
    """Stacked (bi)recurrent layers plus a per-token softmax classifier.

    `extra` is an arbitrary JSON-serializable dict carried through the model
    file; the CLI stores the feature pipeline description there so a saved
    model can be applied to new text.

    A tagger built with `rows=(offset, block)` is a row tagger: `block` is a
    (K, m) array of K variants of the stretch theta[offset:offset + m],
    which must be one entry of `stretches`. The parameter arrays of the
    stretch are views into `block` with a leading K axis. Those of every
    cell after the stretch's layer, and of the projection when it is not
    the stretch, are read-only views of `theta` with the same leading K
    axis, each row the one-row array; the rest are one-row views into
    `theta`. forward() and
    sentence_loss() evaluate the K parameter vectors on one sentence at
    once (the finite-difference oracle's batch). Training and saving take a
    tagger without rows only.
    """

    def __init__(self, config, extra=None, theta=None, rows=None):
        """Every parameter array is a view into `self.theta`, the given
        C-contiguous float64 vector of the tagger's parameter count n (all
        zeros when none is given), or into the block of `rows`."""
        self.config = config
        self.extra = extra or {}
        n_labels, width = len(config.labels), config.layer_output_dim
        # (input width, size) of a cell of the first layer, which reads the
        # features, and of any later one: counted without a walk over the
        # layers, an absurd layer count fails at the allocation
        first, later = ((dim, CellParams.size(config.hidden, dim, config.cell))
                        for dim in (config.input_dim, width))
        n = (len(config.directions) * (first[1] + (config.layers - 1) * later[1])
             + n_labels * (width + 1))
        if theta is None:
            theta = np.zeros(n)
        elif not _is_layout(theta, 1) or len(theta) != n:
            raise ValueError(f"theta must be a C-contiguous float64 array of "
                             f"shape ({n},), got {theta.dtype} {theta.shape}")
        self.theta, self.rows = theta, rows
        stretch = None
        if rows is not None:
            start, block = rows
            if not _is_layout(block, 2) or not len(block):
                raise ValueError(
                    f"a row block must be a C-contiguous float64 array of "
                    f"K >= 1 rows, got {block.dtype} {block.shape}")
            stretch = (start, start + block.shape[1])
        # (start, stop) of each cell's parameters, in param_items() order,
        # then of the projection's
        self.stretches = []
        wide = False  # whether the stretch lies in an earlier layer

        def view(offset, size):
            """Parameters offset .. offset + size: the K rows of the block
            if it is this stretch; after the stretch's layer, one row of
            theta repeated K times (a read-only view); else that one row."""
            self.stretches.append((offset, offset + size))
            if (offset, offset + size) == stretch:
                return block
            one = theta[offset:offset + size]
            return np.broadcast_to(one, (len(block), size)) if wide else one

        offset = 0
        self.layers = []
        for l in range(config.layers):
            dim, size = later if l else first
            self.layers.append({})
            for d in config.directions:
                self.layers[l][d] = CellParams(config.hidden, dim, config.cell,
                                               view(offset, size))
                offset += size
            wide = stretch is not None and stretch[0] < offset
        proj = view(offset, n - offset)
        self.proj_w = proj[..., :-n_labels].reshape(
            proj.shape[:-1] + (n_labels, width))
        self.proj_b = proj[..., -n_labels:]
        if stretch is not None and stretch not in self.stretches:
            raise ValueError(f"a row block must be exactly one stretch "
                             f"{self.stretches}, got {start} .. {stretch[1]}")

    def __reduce__(self):
        # copy and pickle rebuild the views on the copied theta (and row
        # block); numpy would otherwise copy each view on its own
        return Tagger, (self.config, self.extra, self.theta, self.rows)

    def param_items(self):
        """All parameters as (name, array) pairs in the canonical order used
        for updates, clipping, and serialization."""
        out = []
        for l, layer in enumerate(self.layers):
            for d, cell in layer.items():
                for name, arr in cell.items():
                    out.append((f"layer{l}.{d}.{name}", arr))
        out.append(("proj.W", self.proj_w))
        out.append(("proj.b", self.proj_b))
        return out


def _is_layout(array, ndim):
    """Whether a tagger can take views of `array` in its layout."""
    return (array.ndim == ndim and array.dtype == np.float64
            and array.flags.c_contiguous)


def init_params(config, rng, extra=None):
    """Fresh tagger: every matrix uniform in +-sqrt(3/fan_in), biases zero
    except the LSTM forget-gate bias (1.0, so early training does not wash
    memory out)."""
    tagger = Tagger(config, extra=extra)
    for layer in tagger.layers:
        for cell in layer.values():
            fresh = CellParams.init(rng, cell.hidden, cell.input_dim, cell.kind)
            cell.W[...], cell.U[...], cell.b[...] = fresh.W, fresh.U, fresh.b
    bound = np.sqrt(3.0 / config.layer_output_dim)
    tagger.proj_w[...] = rng.uniform(-bound, bound, tagger.proj_w.shape)
    return tagger


def forward(tagger, inputs, rng=None, bptt=False, softmax=True):
    """Per-token label distributions for one sentence (T x D inputs) or for
    a time-major batch of equal-length sentences (T x B x D inputs).

    Train mode is selected by passing an rng: inter-layer inverted dropout
    masks are drawn from it (kept activations divided by the keep
    probability). Without an rng the pass is deterministic inference.
    Returns (T x [B x] L probabilities, cache); the cache holds the logits,
    and the per-step cell states the backward pass needs only with bptt.
    With softmax=False the probabilities are not built (None is returned in
    their place).

    A row tagger of K rows takes one sentence and returns T x K x L
    probabilities. The cells before its stretch, and beside it in its layer,
    run once, as one-row cells; the stretch runs K rows wide, and so does
    every later cell, with the one-row parameters the tagger repeats K
    times (which keeps each row's bits those of a one-row tagger, as a batch
    of K would not). Its dropout masks are drawn at the one-row shape, as
    for a one-row tagger, and shared by all rows.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    K = tagger.rows and len(tagger.rows[1])
    if inputs.ndim not in ((2,) if K else (2, 3)) \
            or inputs.shape[-1] != tagger.config.input_dim:
        raise DimensionMismatch(
            f"forward: inputs {inputs.shape} do not match model input dim "
            f"{tagger.config.input_dim}"
            + (" (a row tagger takes one sentence)" if K else ""))
    if inputs.size == 0:
        raise EmptySequence("cannot tag an empty sentence")
    config = tagger.config
    keep = 1.0 - config.dropout
    use_dropout = rng is not None and config.dropout > 0.0

    layer_caches = []
    current = inputs
    for layer in tagger.layers:
        out, dir_caches = _run_layer(layer, current, bptt)
        mask = None
        if use_dropout:
            shape = (len(out), out.shape[-1]) if K else out.shape
            mask = (rng.random(shape) < keep) / keep
            # a row tagger's one-row mask over its T x K x D rows
            out = out * (mask[:, None] if out.ndim > mask.ndim else mask)
        layer_caches.append({"dirs": dir_caches, "mask": mask, "output": out})
        current = out

    if K:
        if current.ndim == 2:  # the projection's stretch over shared features
            current = np.broadcast_to(current[:, None], (len(current), K,
                                                         current.shape[-1]))
        logits = _row_matmul(current, tagger.proj_w)
    else:
        logits = current @ tagger.proj_w.T
    logits += tagger.proj_b
    probs = _softmax_rows(logits) if softmax else None
    cache = {"layers": layer_caches, "features": current, "logits": logits}
    return probs, cache


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_and_gradients(tagger, inputs, gold_indices, rng=None, grad=None):
    """Mean per-token cross-entropy and its gradient w.r.t. every parameter,
    by backpropagation through time: returns (loss, grad), the gradient a
    vector laid out like `theta` (Tagger(config, theta=grad) names its
    blocks). Every element is written exactly once, into `grad` when given,
    else into a fresh vector. Row taggers are refused."""
    if tagger.rows is not None:
        raise ValueError("loss_and_gradients takes a one-row tagger, got "
                         f"{len(tagger.rows[1])} parameter rows")
    config = tagger.config
    n_labels = len(config.labels)
    gold_indices = list(gold_indices)
    if len(gold_indices) != len(inputs):
        raise ValueError(
            f"got {len(gold_indices)} labels for {len(inputs)} tokens")
    for idx in gold_indices:
        if not 0 <= idx < n_labels:
            raise IndexError(f"label index {idx} out of range [0, {n_labels})")
    if grad is None:
        grad = np.empty_like(tagger.theta)
    dtagger = Tagger(config, theta=grad)

    probs, cache = forward(tagger, inputs, rng=rng, bptt=True)
    T = len(inputs)
    logp = _log_softmax_rows(cache["logits"])
    loss = -float(np.mean(logp[np.arange(T), gold_indices]))

    dlogits = probs.copy()
    dlogits[np.arange(T), gold_indices] -= 1.0
    dlogits /= T

    np.matmul(dlogits.T, cache["features"], out=dtagger.proj_w)
    np.sum(dlogits, axis=0, out=dtagger.proj_b)
    dcurrent = dlogits @ tagger.proj_w

    for l in range(config.layers - 1, -1, -1):
        layer_cache = cache["layers"][l]
        if layer_cache["mask"] is not None:
            dcurrent = dcurrent * layer_cache["mask"]
        # the first layer's inputs are features: no gradient needed
        dcurrent = _backprop_layer(tagger.layers[l], layer_cache["dirs"],
                                   dcurrent, dtagger.layers[l], input_grads=l > 0)
    return loss, grad


def sentence_loss(tagger, inputs, gold_indices, rng=None):
    """Mean per-token cross-entropy only (no gradients): a float, or an
    array of K losses for a row tagger of K rows. The function the
    finite-difference oracle evaluates."""
    _, cache = forward(tagger, inputs, rng=rng, softmax=False)
    logp = _log_softmax_rows(cache["logits"])
    gold = logp[np.arange(len(inputs)), ..., list(gold_indices)]  # T x [K]
    # each row's T terms summed as one contiguous run, in the order numpy
    # sums a one-row tagger's (a mean down the T axis rounds otherwise)
    loss = -np.mean(np.ascontiguousarray(gold.T), axis=-1)
    return loss if tagger.rows is not None else float(loss)


def predict_indices(tagger, inputs):
    """Argmax label index per token (deterministic inference): a list for
    one sentence, one list per sentence for a time-major batch."""
    probs, _ = forward(tagger, inputs, rng=None)
    return probs.argmax(axis=-1).T.tolist()


def _config_blob(tagger):
    record = {"config": asdict(tagger.config), "extra": tagger.extra}
    return json.dumps(record, ensure_ascii=False, sort_keys=True).encode("utf-8")


def save(tagger, sink):
    """Serialize to the versioned container: magic "SQTG", u32 LE version,
    length-prefixed UTF-8 config record, `theta` as little-endian float64
    (its blocks in param_items() order, an LSTM's gates in the runner's
    order i, f, c, o, as the v1 format has them), then a 64-bit checksum
    (leading 8 bytes of SHA-256) over everything before it. Row taggers are
    refused. The header and record, then `theta`'s own buffer, are hashed
    and written in turn, with no copy of the whole file."""
    if tagger.rows is not None:
        raise ValueError("save takes a one-row tagger, got "
                         f"{len(tagger.rows[1])} parameter rows")
    blob = _config_blob(tagger)
    parts = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob,
             memoryview(np.asarray(tagger.theta, dtype="<f8")).cast("B")]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    parts.append(digest.digest()[:8])
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as handle:
            handle.writelines(parts)
    else:
        sink.writelines(parts)


def load(source):
    """Inverse of save(); bit-exact parameter round-trip. Raises BadMagic,
    UnsupportedVersion, TruncatedFile, BadConfigRecord, ChecksumMismatch,
    TrailingBytes or NonFiniteParameters; never returns a partial model."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = source.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic(f"not a model file (magic {data[:4]!r})")
    if len(data) < 12:
        raise TruncatedFile("header cut short")
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"container version {version}, "
                                 f"expected {FORMAT_VERSION}")
    blob_len = struct.unpack("<I", data[8:12])[0]
    if len(data) < 12 + blob_len + 8:
        raise TruncatedFile("config record cut short")
    try:
        record = json.loads(data[12:12 + blob_len].decode("utf-8"))
        if set(record["config"]) != {f.name for f in fields(TaggerConfig)}:
            raise KeyError(f"config fields {sorted(record['config'])}")
        config = TaggerConfig(**record["config"])
        _check_field("extra", record.setdefault("extra", {}), dict)
        tagger = Tagger(config, extra=record["extra"])
    except (ValueError, KeyError, TypeError, OverflowError, MemoryError,
            RecursionError) as exc:
        raise BadConfigRecord(f"unreadable config record ({exc!r})") from None

    expected = 12 + blob_len + tagger.theta.nbytes + 8
    if len(data) < expected:
        raise TruncatedFile(
            f"file is {len(data)} bytes, expected {expected} for this config")

    if hashlib.sha256(memoryview(data)[:-8]).digest()[:8] != data[-8:]:
        raise ChecksumMismatch("stored checksum does not match file contents")
    if len(data) != expected:
        raise TrailingBytes(f"{len(data) - expected} unexpected trailing bytes")

    tagger.theta[...] = np.frombuffer(data, dtype="<f8", count=len(tagger.theta),
                                      offset=12 + blob_len)
    if not np.isfinite(tagger.theta).all():
        raise NonFiniteParameters("a parameter is NaN or infinite")
    return tagger
