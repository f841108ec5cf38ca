"""Inside the recurrent machinery: one LSTM step by hand, bidirectional
layers, the finite-difference gradient check, and the exploding-gradient
pathology that separates a vanilla RNN from an LSTM on long sequences.
"""

import numpy as np

from seqtag.model import CellParams, run_layer
from seqtag.numerics import derive_rng
from seqtag.selfcheck import check_gradients, compare_recurrence_pathology

# --- one memory-cell step, scalar shapes, everything visible -------------
# A cell stores its four gates stacked in the order (i, f, c, o). With
# every weight 1 and bias 0, input 1 and zero initial state, each gate is
# sigmoid(1) and the candidate is tanh(1), so by hand:
gate = 1.0 / (1.0 + np.exp(-1.0))
c = gate * np.tanh(1.0)
print(f"cell state c = {c:.5f}   (sigmoid(1) * tanh(1))")
print(f"hidden   h = {gate * np.tanh(c):.5f}   (sigmoid(1) * tanh(c))")
# and the layer runner, given a one-cell layer {direction: cell}, agrees
# over a one-token sequence:
p = CellParams(1, 1)
p.W[:] = 1.0
p.U[:] = 1.0
h = run_layer({"fwd": p}, np.array([[1.0]]))[0, 0]
print(f"run_layer  h = {h:.5f}")
assert abs(h - gate * np.tanh(c)) < 1e-12

# --- bidirectional layer: forward and backward passes concatenated -------
rng = derive_rng(0, 1)
fwd = CellParams.init(rng, 4, 3)
bwd = CellParams.init(rng, 4, 3)
x = rng.uniform(-1, 1, size=(6, 3))
out = run_layer({"fwd": fwd, "bwd": bwd}, x)
print(f"\nbi-layer output shape: {out.shape}  (T x 2H)")
assert np.array_equal(out[:, :4], run_layer({"fwd": fwd}, x))
assert np.array_equal(out[:, 4:], run_layer({"bwd": bwd}, x))
print("decomposes exactly into the two independent passes")

# --- the gradient check ---------------------------------------------------
# Backpropagation through time is hand-derived; central finite differences
# re-measure every gradient from the loss alone.
res = check_gradients(seeds=range(3), hidden=6, input_dim=5, seq_len=4,
                      n_labels=4, layers=2, bidirectional=True)
print(f"\ngradient check over 3 random models: "
      f"worst relative error {res.worst_error:.2e} "
      f"({'OK' if res.passed else 'BROKEN'})")

# --- why the LSTM exists --------------------------------------------------
# Push a unit gradient into the last of 132 steps and compare how much
# arrives at the first input. The RNN's recurrence multiplies by the same
# matrix every step: with spectral radius above 1 the gradient explodes
# geometrically. The LSTM's additive cell path keeps it in range.
e_rnn, e_lstm = compare_recurrence_pathology()
print(f"\ngradient imbalance over 132 steps (first step vs last):")
print(f"  vanilla RNN (spectral radius 1.4): {e_rnn:.2e}")
print(f"  LSTM (saturated forget gate):      {e_lstm:.2e}")
print(f"  the RNN is {e_rnn / e_lstm:.1e} times more extreme")
