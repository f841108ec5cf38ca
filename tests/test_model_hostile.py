"""Generative check of the model-file contract. A saved toy model with all
five features is mutated once per example: one byte of the header, the
record length, a truncation, one parameter, or one field of the JSON record
set to a value from a hostile pool. The checksum is then made valid again,
so that the checks behind it are reached. train.load_tagger must raise only
model.ModelFormatError subclasses, and `seqtag tag` must exit 0 when the
model loads, and otherwise exit 1 with an `error: ` line and no traceback.
"""

import functools
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag import cli, corpus, features, model, train

# JSON text nested past the parser's depth, written raw in place of the
# string; and a list nested deep, but not past it
DEEP = "[" * 10 ** 4 + "]" * 10 ** 4
NESTED = functools.reduce(lambda inner, _: [inner], range(500), [])
# no "pretrained": such a record asks for a vector file, and its absence is
# a fault of the command line, not of the model file
POOL = [None, True, False, 0, -1, 2, 10 ** 30, 10 ** 400, math.nan, math.inf,
        -math.inf, "", "x", "onehot", [], {}, ["x"], [3], {"x": 1}, NESTED,
        DEEP]
PARAMETERS = [math.nan, math.inf, -math.inf, 1e308, -0.0]
# a drawn integer picks a position, a record path or a parameter modulo
# their count
ANY = st.integers(0, 2 ** 20)


@functools.cache
def _body():
    """The saved toy model without its checksum."""
    toy = corpus.read_conll(cli.toy_corpus_file())
    setup = train.ExperimentSetup(
        train_sentences=toy, dev_sentences=toy,
        feature_set=features.ALL_FEATURES, embedding_dim=2, hidden=2,
        layers=1,
        regex_rules=features.load_regex_rules(cli.default_regex_file()))
    sink = io.BytesIO()
    model.save(train.build_tagger(setup, 0)[0], sink)
    return sink.getvalue()[:-8]


def _record_paths(node, path=()):
    """Every path into the record: each key of an object, and the first
    item of a list."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = list(enumerate(node))[:1] if isinstance(node, list) else ()
    for key, child in children:
        yield from _record_paths(child, path + (key,))


def _blob_len(body):
    return struct.unpack("<I", body[8:12])[0]


def _set_byte(body, position, value):
    return body[:position] + bytes([value]) + body[position + 1:]


def _set_length(body, delta):
    length = (_blob_len(body) + delta) % 2 ** 32
    return body[:8] + struct.pack("<I", length) + body[12:]


def _truncate(body, n):
    return body[:n % len(body)]


def _set_parameter(body, n, value):
    start = 12 + _blob_len(body)
    offset = start + 8 * (n % ((len(body) - start) // 8))
    return body[:offset] + struct.pack("<d", value) + body[offset + 8:]


def _set_field(body, n, value):
    end = 12 + _blob_len(body)
    record = json.loads(body[12:end])
    paths = list(_record_paths(record))
    path = paths[n % len(paths)]
    if path:
        node = record
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        record = value
    blob = json.dumps(record).replace(json.dumps(DEEP), DEEP).encode()
    return body[:8] + struct.pack("<I", len(blob)) + blob + body[end:]


@st.composite
def mutations(draw):
    """A function of the model body and its drawn arguments; a record field
    is drawn three times as often as each container mutation."""
    kind = draw(st.sampled_from(["byte", "length", "truncate", "parameter",
                                 "field", "field", "field"]))
    if kind == "byte":
        return _set_byte, draw(st.integers(0, 11)), draw(st.integers(0, 255))
    if kind == "length":
        return _set_length, draw(st.integers(-64, 64)
                                 | st.sampled_from([-2 ** 31, 2 ** 31]))
    if kind == "truncate":
        return _truncate, draw(ANY)
    if kind == "parameter":
        return _set_parameter, draw(ANY), draw(st.sampled_from(PARAMETERS))
    return _set_field, draw(ANY), draw(st.sampled_from(POOL))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutations())
def test_a_mutated_model_file_raises_only_model_format_errors(mutation):
    mutate, *args = mutation
    body = mutate(_body(), *args)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "model.sqtg")
        with open(path, "wb") as handle:
            handle.write(body + hashlib.sha256(body).digest()[:8])
        try:
            train.load_tagger(path)
            loaded = True
        except model.ModelFormatError:
            loaded = False
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(["tag", "--model", path,
                           "--input", cli.toy_corpus_file(),
                           "--output", os.path.join(directory, "t.conll")])
    err = err.getvalue()
    assert rc == (0 if loaded else 1), (mutation, err)
    assert "Traceback" not in err, mutation
    if rc == 1:
        assert err.startswith("error: "), (mutation, err)
