"""Golden digests of the toy-run artifacts: the SHA-256 of the model file,
its training log and the tagged toy corpus for three small configurations.

A refactor that claims to keep behaviour must leave every digest unchanged.
A change that moves the bits on purpose re-records them and says why.
Recorded with numpy 2.4 on OpenBLAS 0.3.31; the digests are the same at one
and at two BLAS threads.
"""

import hashlib

import pytest

from seqtag import cli

CONFIGS = {
    "readme-bilstm": (
        ["--features", "word,case", "--hidden", "32", "--embedding-dim", "32",
         "--max-epochs", "60", "--patience", "8"],
        ("6fa041508abf4248e7319951bb8da43826455fb19520573e89439809a341911a",
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
        ("769dd3612d79677f81eebc36ef662f7d9a87bbd1d68342d6c5a0adfdf107570e",
         "e3455d1dd37a19a5c64bb32215081e60c6708da5655592000c6dc43a4ba246e1",
         "c18abb7718fcd9b37630204540bf1c29f111163cd575df312fa483c260e3a484")),
}


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path, toy_path):
    flags, expected = CONFIGS[name]
    out = str(tmp_path / "model.sqtg")
    tagged = str(tmp_path / "tagged.conll")
    assert cli.main(["train", "--train", toy_path, "--dev", toy_path,
                     "--seed", "7", "--quiet", "--out", out] + flags) == 0
    assert cli.main(["tag", "--model", out, "--input", toy_path,
                     "--output", tagged]) == 0
    got = tuple(_digest(p) for p in (out, out + ".log", tagged))
    assert got == expected
