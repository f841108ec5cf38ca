"""Generative check of the CLI contract: every command, with hostile flag
values (for train and ablate, also a --config file holding one), exits 0,
1, 2 or 3 without a traceback; exit 1 carries an
`error: ` message, and exit 2 (a non-finite training loss) happens only
with a finite, valid learning rate.

Not yet asserted: that exit 1 leaves the directory listing unchanged. A
write that fails after training still leaves the artifacts written before
it, until every command stages its writes.
"""

import functools
import io
import json
import math
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag import cli, corpus, model
from seqtag.train import ExperimentSetup, build_tagger

# paths are relative to the run's own directory, which holds each of them;
# "null" and "full" link to /dev/null and /dev/full there, so that an
# artifact written beside them (OUT.log, say) lands in that directory
HUGE = str(10 ** 30)
HOSTILE = ["0", "-1", "nan", "inf", "", HUGE, "dir", "null", "full",
           "binary.bin", "truncated.sqtg", "deep.json"]
# JSON text nested past the parser's depth: deep.json holds it, and a drawn
# config file may hold it as its one value
DEEP = "[" * 10 ** 4 + "]" * 10 ** 4
# a huge count of epochs or seeds is a valid request for a very long run
COUNTS = {"--max-epochs", "--seeds"}
# train and ablate may also read a drawn --config file of one option, whose
# value is from the pool, as a JSON string or number (NaN and Infinity
# included) or DEEP; TINY's --max-epochs 1 overrides a huge max_epochs there
CONFIG = "drawn.json"
CONFIG_VALUES = HOSTILE + [0, -1, math.nan, math.inf, 10 ** 30, DEEP]

TINY = ["--hidden", "2", "--embedding-dim", "2", "--max-epochs", "1",
        "--quiet"]
TRAINING = ["--train", "--dev", "--seed", "--config", "--embeddings",
            "--embedding-mode", "--embedding-dim", "--features",
            "--regex-file", "--entity-types", "--scheme", "--max-len",
            "--hidden", "--layers", "--dropout", "--lr", "--clip",
            "--patience", "--max-epochs"]
# per command: an argv that succeeds, and the flags to give hostile values;
# FILE stands for the command's positional argument
COMMANDS = {
    "train": (["train", "--train", "toy.conll", "--dev", "toy.conll",
               "--out", "m.sqtg"] + TINY, TRAINING + ["--out"]),
    "ablate": (["ablate", "--train", "toy.conll", "--dev", "toy.conll",
                "--preset", "table4", "--out", "abl"] + TINY,
               TRAINING + ["--test", "--preset", "--rows", "--out",
                           "--save-models"]),
    "tag": (["tag", "--model", "model.sqtg", "--input", "toy.conll",
             "--output", "tagged.conll"],
            ["--model", "--input", "--output", "--embeddings"]),
    "eval": (["eval", "--gold", "toy.conll"], ["--gold", "--types"]),
    "stats": (["stats", "toy.conll"], ["FILE", "--entity-types"]),
    "selfcheck": (["selfcheck", "--seeds", "1"], ["--seeds"]),
}


def _values(flag):
    return [v for v in HOSTILE
            if not (flag in COUNTS and v == HUGE)]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, flags = COMMANDS[command]
    argv = list(argv)
    config = None
    if command in ("train", "ablate") and draw(st.booleans()):
        config = {draw(st.sampled_from(sorted(cli.DEFAULTS))):
                  draw(st.sampled_from(CONFIG_VALUES))}
        argv += ["--config", CONFIG]
    # one or two hostile values in all, a drawn config's among them
    fewest, most = (0, 1) if config else (1, 2)
    for flag in draw(st.lists(st.sampled_from(flags), min_size=fewest,
                              max_size=most, unique=True)):
        value = draw(st.sampled_from(_values(flag)))
        if flag == "FILE":
            argv[1] = value
        else:
            argv += [flag, value]  # the last occurrence of a flag wins
    return argv, config


@functools.cache
def _model_bytes():
    toy = corpus.read_conll(cli.toy_corpus_file())
    setup = ExperimentSetup(train_sentences=toy, dev_sentences=toy,
                            embedding_dim=2, hidden=2, layers=1)
    sink = io.BytesIO()
    model.save(build_tagger(setup, 0)[0], sink)
    return sink.getvalue()


def _populate(directory):
    shutil.copy(cli.toy_corpus_file(), os.path.join(directory, "toy.conll"))
    os.mkdir(os.path.join(directory, "dir"))
    os.symlink(os.devnull, os.path.join(directory, "null"))
    os.symlink("/dev/full", os.path.join(directory, "full"))
    data = _model_bytes()
    for name, content in (("binary.bin", bytes(range(256))),
                          ("deep.json", DEEP.encode()),
                          ("model.sqtg", data),
                          ("truncated.sqtg", data[:len(data) // 2])):
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(content)


def _valid_lr(argv, config):
    """Whether the learning rate the run resolves is finite and > 0: the
    last --lr value, else that of the drawn config file if it is the one
    read, else the default."""
    def last(flag):
        values = [argv[k + 1] for k, arg in enumerate(argv[:-1]) if arg == flag]
        return values[-1] if values else None

    lr = last("--lr")
    if lr is None:
        from_file = config if last("--config") == CONFIG else {}
        lr = from_file.get("lr", cli.DEFAULTS["lr"])
    try:
        lr = float(lr)
    except ValueError:
        return False
    return math.isfinite(lr) and lr > 0


@settings(derandomize=True, max_examples=400, deadline=None)
@given(invocations())
def test_hostile_flags_keep_the_exit_code_contract(invocation):
    argv, config = invocation
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        _populate(directory)
        if config is not None:
            text = json.dumps(config).replace(json.dumps(DEEP), DEEP)
            with open(os.path.join(directory, CONFIG), "w") as handle:
                handle.write(text)
        os.chdir(directory)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    assert rc in (0, 1, 2, 3), (argv, config, rc)
    assert "Traceback" not in err, (argv, config)
    if rc == 1:
        assert err.startswith("error: "), (argv, config, err)
    if rc == 2:
        assert _valid_lr(argv, config), (argv, config)
