"""Train a small tagger on the bundled toy corpus, watch early stopping
pick the best checkpoint, save the model, reload it, and tag new text.

Uses reduced dimensions so the whole demo runs in a few seconds; drop the
hidden/embedding overrides to train at the default scale.
"""

import os
import tempfile

from seqtag import cli, model, train
from seqtag.corpus import label_alphabet, read_conll
from seqtag.features import FeatureConfig, build_extractor, random_table
from seqtag.numerics import derive_rng

corpus_path = cli.toy_corpus_file()
sentences = read_conll(corpus_path)
train_set, dev_set = sentences[:40], sentences[40:]
print(f"toy corpus: {len(train_set)} train / {len(dev_set)} dev sentences")

# Random-mode embeddings: every word gets a cached uniform vector derived
# from the seed, so the pipeline is reproducible from the seed alone.
table = random_table(dim=32, seed=7)
extractor = build_extractor(train_set, FeatureConfig(("word", "case")), table)
print(f"input width: {extractor.input_dim} (32 word + 5 case)")

config = model.TaggerConfig(labels=label_alphabet(),
                            input_dim=extractor.input_dim,
                            hidden=24, layers=2, bidirectional=True,
                            dropout=0.5)
tagger = model.init_params(config, derive_rng(7, 0))

print("\ntraining (dev F1 drives early stopping):")
tcfg = train.TrainConfig(seed=7, max_epochs=60, patience=8)
best, log = train.train(
    tagger, train_set, dev_set, extractor, tcfg,
    progress=lambda e: print(f"  epoch {e.epoch:3d}  loss {e.loss:.4f}  "
                             f"dev F1 {e.dev_f1:6.2f}"))
print(f"stopped: {log.stop_reason}; best epoch {log.best_epoch} "
      f"(dev F1 {log.best_dev_f1:.2f})")

# The returned model is the best checkpoint, not the last epoch.
path = os.path.join(tempfile.mkdtemp(), "toy.sqtg")
model.save(best, path)
reloaded = model.load(path)
print(f"\nmodel round-tripped through {path}")

# Tag a fresh sentence (pre-segmented tokens with POS and chunk tags).
from seqtag.corpus import Sentence, Token

sent = Sentence([Token("Trần_Thị_Bình", "Np", "B-NP"),
                 Token("đến", "V", "B-VP"),
                 Token("thăm", "V", "I-VP"),
                 Token("Huế", "Np", "B-NP"),
                 Token(".", "CH", "O")])
train.tag_corpus(reloaded, extractor, [sent])
print("\ntagged sample:")
for tok in sent:
    print(f"  {tok.surface:<16} {tok.predicted_label}")
