"""Golden digests of the toy-run artifacts: the SHA-256 of the model file,
its training log and the tagged toy corpus for three small configurations.

A refactor that claims to keep behaviour must leave every digest unchanged.
A change that moves the bits on purpose re-records them and says why:

    PYTHONPATH=src python tests/test_golden.py

prints each configuration's current digests, computed as the test does.
Recorded with numpy 2.4 on OpenBLAS 0.3.31; the digests are the same at one
and at two BLAS threads.
"""

import hashlib
import os
import tempfile

import pytest

from seqtag import cli

CONFIGS = {
    "readme-bilstm": (
        ["--features", "word,case", "--hidden", "32", "--embedding-dim", "32",
         "--max-epochs", "60", "--patience", "8"],
        ("37b7f562a0990b3d3efc65434f852d7e061c70b8b159b1f5bc8aaaf2cc0d5fd1",
         "e12569ed39adb2336f5f77a5347da15e79e2c23c39e98ac489ea546d11e6479c",
         "8647e7dd3248e8a5af641b4c5716bdceae81dfd9878baad46ca2d3c83234b666")),
    "rnn-all-features-onehot": (
        ["--cell", "rnn", "--features", "word,pos,chunk,case,regex",
         "--embedding-mode", "onehot", "--hidden", "16", "--max-epochs", "6",
         "--patience", "3"],
        ("2bb2c9484c4ad23455485425635bc69e928fb39b8acf4ef0d52e789918d6acee",
         "b55cf3c9dbb63615202760d845e4e4d7c21b3eb4df82a18830234c4aa940d394",
         "359e4c03173f03911fd1edbd1b7055f338aa5f0c5289e82cdc64b490a60b9ba4")),
    "one-layer-uni-lstm": (
        ["--no-bidi", "--layers", "1", "--features", "word,pos,chunk",
         "--hidden", "16", "--embedding-dim", "16", "--max-epochs", "6",
         "--patience", "3"],
        ("7b938f0207c8e0afe9c042cbda9073913c8f965000c29046b4c0e575e20a1dfb",
         "e3455d1dd37a19a5c64bb32215081e60c6708da5655592000c6dc43a4ba246e1",
         "c18abb7718fcd9b37630204540bf1c29f111163cd575df312fa483c260e3a484")),
}


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def digests(name, work_dir):
    """Train configuration `name` on the toy corpus in `work_dir`, tag the
    corpus with the model, and return the SHA-256 of the model file, its
    training log and the tagged corpus."""
    toy = cli.toy_corpus_file()
    out = os.path.join(work_dir, "model.sqtg")
    tagged = os.path.join(work_dir, "tagged.conll")
    assert cli.main(["train", "--train", toy, "--dev", toy, "--seed", "7",
                     "--quiet", "--out", out] + CONFIGS[name][0]) == 0
    assert cli.main(["tag", "--model", out, "--input", toy,
                     "--output", tagged]) == 0
    return tuple(_digest(p) for p in (out, out + ".log", tagged))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert digests(name, str(tmp_path)) == CONFIGS[name][1]


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as work_dir:
            print(name, *digests(name, work_dir), sep="\n    ")
