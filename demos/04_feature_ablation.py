"""The ablation harness: retrain the same architecture across feature sets
and read the effect straight off the table.

The corpus here is constructed so the label is a pure function of the
chunk tag while surfaces are reused at random across roles. A word-only
model can at best guess; adding the chunk feature makes the task fully
determined. The same harness drives architecture comparisons (cell type,
directionality, depth, dropout) via the other presets.
"""

from seqtag import train
from seqtag.corpus import Sentence, Token
from seqtag.numerics import derive_rng

VOCAB = [f"tu_{i}" for i in range(12)]


def make_corpus(n_sentences, seed):
    rng = derive_rng(seed, 0)
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(5, 10))
        chunks = []
        while len(chunks) < length:
            kind = rng.integers(0, 3)
            if kind == 0:
                run = min(int(rng.integers(1, 4)), length - len(chunks))
                chunks += ["B-NP"] + ["I-NP"] * (run - 1)
            else:
                chunks.append("B-VP" if kind == 1 else "O")
        tokens = [Token(surface=VOCAB[rng.integers(0, len(VOCAB))],
                        pos="N", chunk=c,
                        gold_label={"B-NP": "B-LOC",
                                    "I-NP": "I-LOC"}.get(c, "O"))
                  for c in chunks]
        sentences.append(Sentence(tokens))
    return sentences


train_set = make_corpus(40, seed=21)
eval_set = make_corpus(15, seed=22)
print(f"synthetic corpus: {len(train_set)} train / {len(eval_set)} eval; "
      "labels follow the chunk column, surfaces are noise")

setup = train.ExperimentSetup(
    train_sentences=train_set, dev_sentences=eval_set,
    entity_types=("LOC",), embedding_mode="random", embedding_dim=12,
    hidden=12, layers=1, bidirectional=True, dropout=0.0)
# a row is a name and the setup fields it overrides
rows = [
    ("Word", {"feature_set": ("word",)}),
    ("Word+POS", {"feature_set": ("word", "pos")}),
    ("Word+Chunk", {"feature_set": ("word", "chunk")}),
]
config = train.TrainConfig(seed=21, max_epochs=25, patience=25)

print("\ntraining one model per row (same seed throughout)...")
results = train.ablate(setup, rows, config)
print()
print(train.render_ablation(results), end="")

word_f1 = results[0].f1
chunk_f1 = results[2].f1
print(f"\nthe chunk feature is worth {chunk_f1 - word_f1:.1f} F1 points here")
