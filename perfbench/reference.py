"""Independent check of `seqtag tag` output: reads the v1 model container
byte by byte and runs a plain per-gate numpy Bi-LSTM forward pass, sharing
no code with `seqtag.model`.

Container v1: magic "SQTG", u32 LE version, u32 LE length of a UTF-8 JSON
config record, the parameter blocks as little-endian float64, then the
leading 8 bytes of SHA-256 over everything before them. Per layer and
direction (fwd, then bwd) the LSTM blocks are W_i W_f W_c W_o (H x H),
U_i U_f U_c U_o (H x D), b_i b_f b_c b_o (H); the projection W (L x 2H) and
b (L) come last.
"""

import hashlib
import json
import struct

import numpy as np

from seqtag import features

GATES = ("i", "f", "c", "o")


def read_container(path):
    """(config record, list of per-layer {direction: {name: array}},
    projection W, projection b)."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != b"SQTG" or struct.unpack("<I", data[4:8])[0] != 1:
        raise ValueError(f"{path}: not a v1 SQTG container")
    if hashlib.sha256(data[:-8]).digest()[:8] != data[-8:]:
        raise ValueError(f"{path}: checksum mismatch")
    blob_len = struct.unpack("<I", data[8:12])[0]
    record = json.loads(data[12:12 + blob_len].decode("utf-8"))
    config = record["config"]
    if config["cell"] != "lstm":
        raise ValueError("the reference pass covers LSTM models only")
    offset = 12 + blob_len

    def take(*shape):
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=offset)
        offset += 8 * n
        return arr.reshape(shape)

    H = config["hidden"]
    directions = ("fwd", "bwd") if config["bidirectional"] else ("fwd",)
    layers = []
    for layer in range(config["layers"]):
        d_in = config["input_dim"] if layer == 0 else H * len(directions)
        cells = {}
        for d in directions:
            p = {f"W_{g}": take(H, H) for g in GATES}
            p.update({f"U_{g}": take(H, d_in) for g in GATES})
            p.update({f"b_{g}": take(H) for g in GATES})
            cells[d] = p
        layers.append(cells)
    proj_w = take(len(config["labels"]), H * len(directions))
    proj_b = take(len(config["labels"]))
    if offset != len(data) - 8:
        raise ValueError(f"{path}: parameter blocks do not fill the file")
    return record, layers, proj_w, proj_b


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp overflow saturates to 0, as it should
        return 1.0 / (1.0 + np.exp(-x))


def _lstm_pass(p, xs):
    h = np.zeros(len(p["b_i"]))
    c = np.zeros_like(h)
    out = []
    for x in xs:
        i = _sigmoid(p["W_i"] @ h + p["U_i"] @ x + p["b_i"])
        f = _sigmoid(p["W_f"] @ h + p["U_f"] @ x + p["b_f"])
        g = np.tanh(p["W_c"] @ h + p["U_c"] @ x + p["b_c"])
        o = _sigmoid(p["W_o"] @ h + p["U_o"] @ x + p["b_o"])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def repair(labels):
    """IOB2 repair rule: an I-X without a B-X/I-X predecessor becomes B-X."""
    out = []
    prev = "O"
    for label in labels:
        if label.startswith("I-") and prev[2:] != label[2:]:
            label = "B-" + label[2:]
        out.append(label)
        prev = label
    return out


class ReferenceTagger:
    def __init__(self, model_path):
        self.record, self.layers, self.proj_w, self.proj_b = read_container(model_path)
        self.labels = self.record["config"]["labels"]
        extra = self.record["extra"]
        emb = extra["embedding"]
        if emb["mode"] != "random":
            raise ValueError("the reference pass covers random embeddings only")
        rules = features.RegexRuleSet(
            [features.RegexRule(*r) for r in extra["regex_rules"] or []])
        self.extractor = features.FeatureExtractor(
            features.FeatureConfig(tuple(extra["features"])),
            features.random_table(emb["dim"], emb["seed"]),
            features.TagEncoder(extra["pos_tags"] or []),
            features.TagEncoder(extra["chunk_tags"] or []), rules)

    def tag(self, sentence):
        """Repaired IOB2 labels for a seqtag Sentence."""
        x = self.extractor.assemble(sentence)
        for cells in self.layers:
            parts = [_lstm_pass(cells["fwd"], x)]
            if "bwd" in cells:
                parts.append(_lstm_pass(cells["bwd"], x[::-1])[::-1])
            x = np.concatenate(parts, axis=1)
        logits = x @ self.proj_w.T + self.proj_b
        return repair([self.labels[k] for k in np.argmax(logits, axis=1)])
