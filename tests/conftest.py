import pytest

from seqtag import cli, corpus
from seqtag.numerics import derive_rng


def process_alive(pid):
    """Whether process `pid` runs: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def toy_path():
    return cli.toy_corpus_file()


@pytest.fixture
def toy_sentences(toy_path):
    return corpus.read_conll(toy_path)


def synth_chunk_corpus(n_sentences, seed):
    """Synthetic corpus whose labels are a pure function of the chunk
    column (B-NP -> B-LOC, I-NP -> I-LOC, else O); surfaces are drawn
    independently of the chunks so word identity carries no label signal."""
    rng = derive_rng(seed, 200)
    vocab = [f"tu_{i}" for i in range(12)]
    pos_tags = ["N", "V", "A"]
    sents = []
    for _ in range(n_sentences):
        length = int(rng.integers(5, 10))
        chunks = []
        t = 0
        while t < length:
            kind = rng.integers(0, 3)
            if kind == 0:
                run = min(int(rng.integers(1, 4)), length - t)
                chunks += ["B-NP"] + ["I-NP"] * (run - 1)
                t += run
            elif kind == 1:
                chunks.append("B-VP")
                t += 1
            else:
                chunks.append("O")
                t += 1
        tokens = []
        for c in chunks:
            label = {"B-NP": "B-LOC", "I-NP": "I-LOC"}.get(c, "O")
            tokens.append(corpus.Token(
                surface=vocab[rng.integers(0, len(vocab))],
                pos=pos_tags[rng.integers(0, len(pos_tags))],
                chunk=c, gold_label=label))
        sents.append(corpus.Sentence(tokens))
    return sents
