import io
import json
import os
import subprocess
import sys
from contextlib import suppress

import numpy as np
import pytest

from seqtag import cli, corpus, features, model, train as train_module
from seqtag.train import ExperimentSetup, build_tagger
from seqtag.eval import score_conll_lines

FAST = ["--hidden", "8", "--embedding-dim", "12", "--max-epochs", "2",
        "--patience", "2", "--quiet"]


def _train(tmp_path, toy_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = str(tmp_path / "model.sqtg")
    rc = cli.main(["train", "--train", toy_path, "--dev", toy_path,
                   "--seed", "7", "--out", out] + FAST + list(extra))
    return rc, out


def test_cmd_train_writes_artifacts(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path)
    assert rc == 0
    assert os.path.exists(out)
    assert os.path.exists(out + ".log")
    assert os.path.exists(out + ".manifest.json")
    log = open(out + ".log").read()
    assert log.startswith("epoch\tloss\tdev_f1")
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["seed"] == 7
    assert manifest["options"]["hidden"] == 8
    assert toy_path in manifest["input_digests"]


def test_cmd_train_cuts_entities_longer_than_max_len(tmp_path, toy_path):
    # at --max-len 1 every entity of two or more tokens is cut, and the dev
    # pieces are scored after every epoch
    rc, _ = _train(tmp_path, toy_path, "--max-len", "1")
    assert rc == 0


def test_cmd_train_missing_embeddings_file(tmp_path, toy_path, capsys):
    rc, _ = _train(tmp_path, toy_path, "--embedding-mode", "skipgram",
                   "--embeddings", "/nonexistent/vectors.vec")
    assert rc == 1
    assert "/nonexistent/vectors.vec" in capsys.readouterr().err


def test_cmd_train_reports_each_epoch_unless_quiet(tmp_path, toy_path,
                                                   capsys):
    out = str(tmp_path / "m.sqtg")
    argv = ["train", "--train", toy_path, "--dev", toy_path, "--out", out]
    assert cli.main(argv + [a for a in FAST if a != "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per epoch, with the log's loss and dev F1 at print precision
    with open(out + ".log") as handle:
        log = [row.split("\t") for row in handle.read().splitlines()[1:3]]
    for line, (epoch, loss, f1) in zip(lines, log):
        assert line.startswith(f"epoch {epoch}: loss {float(loss):.4f} "
                               f"dev_f1 {float(f1):.2f} (")
    assert lines[2].startswith("best epoch ")
    assert lines[3:] == [f"model written to {out}"]


def test_skipgram_vectors_train_tag_and_table3(tmp_path, toy_path):
    # vectors for two thirds of the toy vocabulary, half of those keyed by
    # the lower-case form only; the rest are left to the OOV draw
    words = features.first_seen(corpus.read_conll(toy_path), "surface")
    vectors = tmp_path / "vectors.vec"
    vectors.write_text("".join(
        " ".join([word.lower() if i % 3 == 1 else word]
                 + [str((i * 7 + d) % 13 / 10) for d in range(12)]) + "\n"
        for i, word in enumerate(words) if i % 3 != 2), encoding="utf-8")
    assert any(w.lower() != w for i, w in enumerate(words) if i % 3 == 1)
    skipgram = ["--embedding-mode", "skipgram", "--embeddings", str(vectors),
                "--max-epochs", "1"]
    rc, out = _train(tmp_path, toy_path, *skipgram)
    assert rc == 0
    assert model.load(out).extra["embedding"]["mode"] == "pretrained"
    tagged = tmp_path / "tagged.conll"
    assert cli.main(["tag", "--model", out, "--input", toy_path, "--output",
                     str(tagged), "--embeddings", str(vectors)]) == 0
    # the tagged output depends on the vector file, so its manifest names it
    manifest = json.load(open(f"{tagged}.manifest.json"))
    assert manifest["options"]["embeddings"] == str(vectors)
    assert manifest["input_digests"] == {
        path: cli._sha256(path) for path in (out, toy_path, str(vectors))}
    with open(toy_path, encoding="utf-8") as handle:
        tokens = [line.split() for line in handle if line.strip()]
    rows = [line.split() for line in tagged.read_text("utf-8").splitlines()
            if line]
    assert [row[:4] for row in rows] == tokens and {len(r) for r in rows} == {5}
    prefix = str(tmp_path / "abl")
    assert cli.main(["ablate", "--train", toy_path, "--dev", toy_path,
                     "--preset", "table3", "--out", prefix]
                    + FAST + skipgram) == 0
    with open(prefix + ".tsv") as handle:
        status = [row.split("\t")[-1] for row in handle.read().splitlines()]
    assert status == ["status", "ok", "ok", "ok"]


def test_cmd_train_skipgram_needs_embeddings_flag(tmp_path, toy_path, capsys):
    rc, _ = _train(tmp_path, toy_path, "--embedding-mode", "skipgram")
    assert rc == 1
    assert "--embeddings" in capsys.readouterr().err


def test_cmd_train_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("word N\n\n", encoding="utf-8")
    rc = cli.main(["train", "--train", str(bad), "--dev", str(bad),
                   "--out", str(tmp_path / "m.sqtg")] + FAST)
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_cmd_train_non_finite_loss_exit_code(tmp_path, toy_path, capsys):
    # a step size at the float ceiling overflows the parameters within the
    # first epoch; the command must fail with the dedicated exit code
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc, _ = _train(tmp_path, toy_path, "--lr", "1e308", "--clip", "1e308")
    assert rc == 2
    assert "non-finite loss" in capsys.readouterr().err


def test_determinism_same_seed_same_bytes(tmp_path, toy_path):
    rc1, out1 = _train(tmp_path / "a", toy_path)
    rc2, out2 = _train(tmp_path / "b", toy_path)
    assert rc1 == rc2 == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert open(out1 + ".log").read() == open(out2 + ".log").read()


def test_cmd_tag_appends_predictions(tmp_path, toy_path, capsys):
    rc, out = _train(tmp_path, toy_path)
    tagged = str(tmp_path / "tagged.conll")
    rc = cli.main(["tag", "--model", out, "--input", toy_path,
                   "--output", tagged])
    assert rc == 0
    lines = open(tagged, encoding="utf-8").read().splitlines()
    first = lines[0].split()
    assert len(first) == 5  # surface pos chunk gold predicted
    orig = open(toy_path, encoding="utf-8").read().splitlines()
    assert first[:4] == orig[0].split()
    # without --output the same lines go to stdout
    capsys.readouterr()
    assert cli.main(["tag", "--model", out, "--input", toy_path]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_cmd_tag_empty_input(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path)
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    tagged = str(tmp_path / "out.conll")
    rc = cli.main(["tag", "--model", out, "--input", str(empty),
                   "--output", tagged])
    assert rc == 0
    assert open(tagged).read() == ""


def test_cmd_tag_unseen_pos_tag_uses_unk(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path, "--features", "word,pos")
    weird = tmp_path / "weird.conll"
    weird.write_text("Hà_Nội ZZZ B-NP O\n\n", encoding="utf-8")
    rc = cli.main(["tag", "--model", out, "--input", str(weird),
                   "--output", str(tmp_path / "out.conll")])
    assert rc == 0


def test_cmd_tag_without_gold_column(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path)
    raw = tmp_path / "raw.conll"
    raw.write_text("Hà_Nội Np B-NP\nđẹp A B-AP\n\n", encoding="utf-8")
    tagged = str(tmp_path / "out.conll")
    rc = cli.main(["tag", "--model", out, "--input", str(raw),
                   "--output", tagged])
    assert rc == 0
    lines = [l.split() for l in open(tagged, encoding="utf-8").read().splitlines()]
    assert [l[:3] for l in lines] == [
        l.split() for l in raw.read_text(encoding="utf-8").splitlines()]
    assert [len(l) for l in lines] == [4, 4, 0]


@pytest.mark.parametrize("entity_types", ["missing", "PER", ["LOC"]],
                         ids=["missing", "string", "subset"])
def test_cmd_tag_takes_entity_types_from_the_label_alphabet(tmp_path, toy_path,
                                                            entity_types):
    # the model record's entity_types is a copy of what the label alphabet
    # holds; tagging must not depend on it
    toy = corpus.read_conll(toy_path)
    setup = ExperimentSetup(train_sentences=toy, dev_sentences=toy,
                            embedding_dim=4, hidden=2, layers=1)
    tagger = build_tagger(setup, 0)[0]  # untrained: predicts every type
    outputs = []
    for name in ("full", "edited"):
        if name == "edited":
            if entity_types == "missing":
                del tagger.extra["entity_types"]
            else:
                tagger.extra["entity_types"] = entity_types
        model.save(tagger, str(tmp_path / f"{name}.sqtg"))
        tagged = tmp_path / f"{name}.conll"
        assert cli.main(["tag", "--model", str(tmp_path / f"{name}.sqtg"),
                         "--input", toy_path, "--output", str(tagged)]) == 0
        outputs.append(tagged.read_bytes())
    assert outputs[0] == outputs[1]
    assert {line.split()[-1][2:] for line in outputs[0].decode().splitlines()
            if line} >= {"PER", "ORG"}


def test_cmd_tag_width_mismatch_names_both_widths(tmp_path, toy_path, capsys):
    rc, out = _train(tmp_path, toy_path)
    tagger = model.load(out)
    tagger.extra["embedding"]["dim"] = 9  # feature pipeline now disagrees
    model.save(tagger, out)
    with pytest.raises(model.BadConfigRecord, match="9 .* 12"):
        train_module.load_tagger(out)
    rc = cli.main(["tag", "--model", out, "--input", toy_path,
                   "--output", str(tmp_path / "x.conll")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "9" in err and "12" in err


@pytest.mark.parametrize("vectors, error, message", [
    (None, features.EmbeddingError, "model.sqtg: skipgram embeddings need a "
                                    "vector file"),
    ("short.vec", features.DimMismatch,
     "short.vec: line 1: expected 2 values for 'Ha_Noi', got 1"),
    ("missing.vec", FileNotFoundError,
     "cannot read {tmp}/missing.vec: No such file or directory")],
    ids=["no-vector-file", "short-vector", "missing-vector-file"])
def test_a_vector_file_fault_is_not_a_model_file_fault(tmp_path, toy_path,
                                                       capsys, vectors, error,
                                                       message):
    (tmp_path / "ok.vec").write_text("Ha_Noi 0.5 0.5\n", encoding="utf-8")
    (tmp_path / "short.vec").write_text("Ha_Noi 0.5\n", encoding="utf-8")
    toy = corpus.read_conll(toy_path)
    setup = ExperimentSetup(train_sentences=toy, dev_sentences=toy,
                            embedding_mode="pretrained", embedding_dim=2,
                            embeddings_path=str(tmp_path / "ok.vec"),
                            hidden=2, layers=1)
    out = str(tmp_path / "model.sqtg")
    model.save(build_tagger(setup, 0)[0], out)
    vectors = vectors and str(tmp_path / vectors)
    with pytest.raises(error):
        train_module.load_tagger(out, vectors)
    rc = cli.main(["tag", "--model", out, "--input", toy_path]
                  + (["--embeddings", vectors] if vectors else []))
    assert rc == 1
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline_model(tmp_path_factory):
    """The bytes of a model trained with a pos and a regex feature."""
    rc, out = _train(tmp_path_factory.mktemp("pipeline"),
                     cli.toy_corpus_file(), "--features", "word,pos,regex")
    assert rc == 0
    with open(out, "rb") as handle:
        return handle.read()


LABELS = corpus.label_alphabet()


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.extra.update(pos_tags=None),
     "the pos feature is on but has no tag list"),
    (lambda t: t.extra.update(regex_rules=[["OPEN", "self", "("]]),
     "rule 'OPEN': missing ), unterminated subpattern"),
    (lambda t: t.extra["embedding"].update(seed=-1),
     "embedding seed must be >= 0, got -1"),
    (lambda t: t.extra["embedding"].update(dim=3.5),
     "embedding dim must be int, got 3.5"),
    (lambda t: t.extra["embedding"].update(dim="3"),
     "embedding dim must be int, got '3'"),
    (lambda t: t.extra["embedding"].update(seed=1.5),
     "embedding seed must be int, got 1.5"),
    (lambda t: t.extra["embedding"].update(seed=True),
     "embedding seed must be int, got True"),
    (lambda t: t.extra.update(pos_tags="".join(t.extra["pos_tags"])),
     "pos_tags must be a list of str, got"),
    (lambda t: t.extra.update(chunk_tags="B-NP"),
     "chunk_tags must be a list of str, got 'B-NP'"),
    (lambda t: t.extra["embedding"].update(vocab="abc"),
     "vocab must be a list of str, got 'abc'"),
    (lambda t: t.extra["embedding"].update(lowercase_fallback="no"),
     "lowercase_fallback must be true, got 'no'"),
    # past a float: the table's OOV bound, sqrt(3 / dim), overflows
    (lambda t: t.extra["embedding"].update(dim=10 ** 400),
     "OverflowError: int too large to convert to float"),
    (lambda t: setattr(t.config, "bidirectional", "yes"),
     "bidirectional must be bool, got 'yes'"),
    (lambda t: setattr(t.config, "hidden", "8"), "BadConfigRecord"),
    (lambda t: setattr(t.config, "hidden", 8.0), "BadConfigRecord"),
    # label edits keep the count of nine, so the parameters still fit
    (lambda t: setattr(t.config, "labels", LABELS[:-2] + ["B-X-Y", "I-X-Y"]),
     "the model's labels are not the label alphabet"),
    (lambda t: setattr(t.config, "labels", ["foo"] * 9),
     "the model's labels are not the label alphabet"),
    (lambda t: setattr(t.config, "labels", LABELS[:3] * 3),
     "the model's labels are not the label alphabet"),
], ids=["null-tag-list", "bad-rule-pattern", "negative-seed", "float-dim",
        "str-dim", "float-seed", "bool-seed", "str-pos-tags", "str-chunk-tags",
        "str-vocab", "lowercase-fallback-no", "huge-dim",
        "str-bidirectional",
        "str-hidden", "float-hidden", "label-off-grammar", "labels-foo",
        "repeated-labels"])
def test_cmd_tag_refuses_a_hostile_pipeline_record(tmp_path, toy_path, capsys,
                                                   pipeline_model, edit,
                                                   message):
    out = str(tmp_path / "model.sqtg")
    tagger = model.load(io.BytesIO(pipeline_model))
    edit(tagger)
    model.save(tagger, out)  # with a valid checksum for the edited record
    with pytest.raises(model.ModelFormatError) as refused:
        train_module.load_tagger(out)
    assert message in f"{type(refused.value).__name__}: {refused.value}"
    rc = cli.main(["tag", "--model", out, "--input", toy_path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["train", "tag", "ablate"])
def test_an_output_that_names_an_input_is_refused(tmp_path, toy_path, capsys,
                                                  pipeline_model, command):
    data = tmp_path / "data.txt"
    data.write_bytes(open(toy_path, "rb").read())
    before = data.read_bytes()
    model_file = tmp_path / "model.sqtg"
    model_file.write_bytes(pipeline_model)
    # each output is the input under another spelling of its path
    same = os.path.join(str(tmp_path), ".", "data.txt")
    argv = {
        "train": ["train", "--train", str(data), "--dev", toy_path,
                  "--out", same] + FAST,
        "tag": ["tag", "--model", str(model_file), "--input", str(data),
                "--output", same],
        "ablate": ["ablate", "--train", toy_path, "--dev", toy_path,
                   "--test", str(data), "--preset", "table3", "--quiet",
                   "--out", same[:-len(".txt")]],
    }[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {same}: it is the input")
    assert data.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["data.txt", "model.sqtg"]


def test_tag_then_eval_matches_train_dev_score(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path)
    log = open(out + ".log").read()
    best_f1 = float([l for l in log.splitlines()
                     if l.startswith("best_dev_f1=")][0].split("=")[1])
    tagged = str(tmp_path / "tagged.conll")
    cli.main(["tag", "--model", out, "--input", toy_path, "--output", tagged])
    with open(tagged, encoding="utf-8") as handle:
        report = score_conll_lines(handle)
    assert report.overall.f1 == pytest.approx(best_f1, abs=0.01)


def test_cmd_eval_perfect_and_types_filter(tmp_path, capsys):
    f = tmp_path / "scored.conll"
    f.write_text("a X B-PER B-PER\nb X O O\nc X B-MISC O\n\n",
                 encoding="utf-8")
    rc = cli.main(["eval", "--gold", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PER" in out and "MISC" in out
    rc = cli.main(["eval", "--gold", str(f), "--types", "PER,LOC,ORG"])
    out = capsys.readouterr().out
    assert "MISC" not in out
    line = [l for l in out.splitlines() if l.startswith("ALL")][0]
    assert "100.00" in line
    # the input file is untouched by filtering
    assert "B-MISC" in f.read_text(encoding="utf-8")


def test_cmd_eval_reports_bad_lines(tmp_path, capsys):
    f = tmp_path / "broken.conll"
    f.write_text("loner\n", encoding="utf-8")
    rc = cli.main(["eval", "--gold", str(f)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_cmd_stats_output(toy_path, capsys):
    rc = cli.main(["stats", toy_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entities.PER=29" in out
    assert "sentences=50" in out


def test_cmd_selfcheck_pass_and_corrupt(capsys):
    rc = cli.main(["selfcheck", "--seeds", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    rc = cli.main(["selfcheck", "--seeds", "1", "--corrupt-gradient"])
    assert rc == 3


def test_cmd_ablate_preset(tmp_path, toy_path, capsys):
    prefix = str(tmp_path / "abl")
    rc = cli.main(["ablate", "--train", toy_path, "--dev", toy_path,
                   "--preset", "table4", "--seed", "7", "--out", prefix]
                  + FAST)
    assert rc == 0
    tsv = open(prefix + ".tsv").read()
    assert "Bi-LSTM" in tsv and "LSTM" in tsv
    assert os.path.exists(prefix + ".txt")
    assert os.path.exists(prefix + ".manifest.json")


def test_quiet_ablate_prints_nothing_and_writes_its_files(tmp_path, toy_path,
                                                        capsys):
    prefix = str(tmp_path / "abl")
    argv = ["ablate", "--train", toy_path, "--dev", toy_path, "--preset",
            "table4", "--seed", "7", "--out", prefix] + FAST
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    text = open(prefix + ".txt").read()
    assert "Bi-LSTM" in text
    assert os.path.exists(prefix + ".tsv")
    assert os.path.exists(prefix + ".manifest.json")
    argv.remove("--quiet")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == text


def test_cmd_ablate_rows_file_and_failure(tmp_path, toy_path):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([
        {"name": "ok", "features": ["word"]},
        {"name": "broken", "embedding_mode": "skipgram"},
        {"name": "no-layers", "layers": 0},  # a row's own invalid value
    ]), encoding="utf-8")
    prefix = str(tmp_path / "abl")
    rc = cli.main(["ablate", "--train", toy_path, "--dev", toy_path,
                   "--rows", str(rows), "--seed", "7", "--out", prefix]
                  + FAST)
    assert rc == 0
    tsv = open(prefix + ".tsv").read()
    assert "ok\t" in tsv
    assert "failed" in tsv
    assert "no-layers\t\t\t\tfailed: ValueError: layers must be >= 1, got 0" \
        in tsv


def test_cmd_ablate_save_models(tmp_path, toy_path):
    prefix = str(tmp_path / "abl")
    models_dir = tmp_path / "models"
    rc = cli.main(["ablate", "--train", toy_path, "--dev", toy_path,
                   "--preset", "table5", "--seed", "7", "--out", prefix,
                   "--save-models", str(models_dir)] + FAST)
    assert rc == 0
    names = sorted(p.name for p in models_dir.iterdir())
    assert names == ["One_layer.sqtg", "Two_layers.sqtg"]
    assert model.load(str(models_dir / "One_layer.sqtg")).config.layers == 1
    # a retained row model carries its feature pipeline and can tag
    rc = cli.main(["tag", "--model", str(models_dir / "One_layer.sqtg"),
                   "--input", toy_path, "--output", str(tmp_path / "t.conll")])
    assert rc == 0


def _user_error_args(tmp_path, toy_path, case):
    train = ["train", "--train", toy_path, "--dev", toy_path,
             "--out", str(tmp_path / "m.sqtg")] + FAST
    ablate = ["ablate", "--train", toy_path, "--dev", toy_path,
              "--out", str(tmp_path / "abl")] + FAST
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    deep_json = tmp_path / "deep.json"  # past the JSON parser's depth
    deep_json.write_text("[" * 10 ** 4 + "]" * 10 ** 4, encoding="utf-8")
    nameless = tmp_path / "rows.json"
    nameless.write_text(json.dumps([{"features": ["word"]}]), encoding="utf-8")
    bad_rows = tmp_path / "badrows.json"
    bad_rows.write_text(json.dumps([{"name": "base"},
                                    {"name": "r", **ROW_CASES.get(case, {})}]),
                        encoding="utf-8")
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    bare_model = str(tmp_path / "bare.sqtg")  # no feature pipeline record
    model.save(model.init_params(model.TaggerConfig(labels=["O"], input_dim=2),
                                 np.random.default_rng(0)), bare_model)
    bad_rules = tmp_path / "rules.txt"
    bad_rules.write_text("ONLY_TWO\tself\n", encoding="utf-8")
    missing = str(tmp_path / "missing.txt")
    binary = tmp_path / "binary.conll"
    binary.write_bytes(b"\x80\x81 N B-NP O\n\n")
    iob1 = tmp_path / "iob1.conll"  # B-PER on line 4 opens no adjacent entity
    iob1.write_text("a N B-NP I-PER\n\nb N B-NP O\nc N B-NP B-PER\n\n",
                    encoding="utf-8")
    regex = ["--features", "word,regex", "--regex-file"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_CASES.get(case, {})), encoding="utf-8")
    tagged = str(tmp_path / "tagged.conll")
    tag_model = str(tmp_path / "tag.sqtg")  # with a feature pipeline record
    if case in PREMADE_DIRECTORIES:
        (tmp_path / PREMADE_DIRECTORIES[case]).mkdir()
    toy = corpus.read_conll(toy_path)
    setup = ExperimentSetup(train_sentences=toy, dev_sentences=toy,
                            embedding_dim=4, hidden=2, layers=1)
    model.save(build_tagger(setup, 0)[0], tag_model)
    return {
        "hidden-zero": train + ["--hidden", "0"],
        # counted, not walked: no list of 10**30 layer sizes is built
        "layers-huge": train + ["--layers", str(10 ** 30)],
        # exbibytes of parameters: past any address space
        "hidden-1e8": train + ["--hidden", str(10 ** 8)],
        "embedding-dim-1e15": train + ["--hidden", "100",
                                       "--embedding-dim", str(10 ** 15)],
        "negative-lr": train + ["--lr", "-1"],
        "missing-config": train + ["--config", str(tmp_path / "none.json")],
        "invalid-config": train + ["--config", str(bad_json)],
        "missing-rows": ablate + ["--rows", str(tmp_path / "none.json")],
        "deep-config": train + ["--config", str(deep_json)],
        "deep-rows": ablate + ["--rows", str(deep_json)],
        "row-without-name": ablate + ["--rows", str(nameless)],
        "row-unknown-key": ablate + ["--rows", str(bad_rows)],
        "row-str-for-bool": ablate + ["--rows", str(bad_rows)],
        "row-str-for-int": ablate + ["--rows", str(bad_rows)],
        "row-bool-for-float": ablate + ["--rows", str(bad_rows)],
        "row-embedding-mode-unknown": ablate + ["--rows", str(bad_rows)],
        "row-embedding-mode-internal": ablate + ["--rows", str(bad_rows)],
        "row-embedding-mode-capitalized": ablate + ["--rows", str(bad_rows)],
        "row-cell-unknown": ablate + ["--rows", str(bad_rows)],
        "row-unknown-feature": ablate + ["--rows", str(bad_rows)],
        # every type of the toy corpus, plus one off the label grammar
        "entity-type-hyphen":
            train + ["--entity-types", "PER,LOC,ORG,MISC,X-Y"],
        "entity-type-space":
            train + ["--entity-types", "PER,LOC,ORG,MISC,X Y"],
        "entity-type-repeated":
            train + ["--entity-types", "PER,PER,LOC,ORG,MISC"],
        "model-without-pipeline": ["tag", "--model", bare_model,
                                   "--input", toy_path],
        "embedding-dim-zero": train + ["--embedding-dim", "0"],
        "embedding-dim-negative": train + ["--embedding-dim", "-3"],
        "missing-regex-file": train + regex + [missing],
        "malformed-regex-file": train + regex + [str(bad_rules)],
        "max-len-zero": train + ["--max-len", "0"],
        "selfcheck-zero-seeds": ["selfcheck", "--seeds", "0"],
        # named inputs are hashed before training, used or not
        "unused-missing-regex-file": train + ["--regex-file", missing],
        "unused-missing-embeddings": train + ["--embeddings", missing],
        "ablate-unused-missing-regex-file":
            ablate + ["--preset", "table5", "--regex-file", missing],
        "binary-corpus": ["stats", str(binary)],
        "directory-corpus": ["stats", str(tmp_path)],
        "config-str-for-int": train + ["--config", str(config)],
        "config-bool-for-int": train + ["--config", str(config)],
        "config-str-for-float": train + ["--config", str(config)],
        "config-int-for-bool": train + ["--config", str(config)],
        "config-null": train + ["--config", str(config)],
        "eval-gold-directory": ["eval", "--gold", str(tmp_path)],
        "tag-input-directory": ["tag", "--model", tag_model,
                                "--input", str(tmp_path), "--output", tagged],
        "tag-model-directory": ["tag", "--model", str(tmp_path),
                                "--input", toy_path, "--output", tagged],
        "tag-output-directory": ["tag", "--model", tag_model,
                                 "--input", toy_path, "--output", str(tmp_path)],
        "tag-binary-input": ["tag", "--model", tag_model,
                             "--input", str(binary), "--output", tagged],
        "tag-output-full": ["tag", "--model", tag_model, "--input", toy_path,
                            "--output", "/dev/full"],
        "tag-manifest-directory": ["tag", "--model", tag_model,
                                   "--input", toy_path, "--output", tagged],
        "tag-output-missing-directory":
            ["tag", "--model", tag_model, "--input", toy_path,
             "--output", str(tmp_path / "none" / "tagged.conll")],
        "iob1-sequence-error":
            train + ["--scheme", "IOB1", "--train", str(iob1)],
        "seed-negative": train + ["--seed", "-1"],
        "seed-negative-in-config": train + ["--config", str(config)],
        "unknown-config-key": train + ["--config", str(config)],
        "config-scheme-lowercase": train + ["--config", str(config)],
        "config-cell-unknown": train + ["--config", str(config)],
        "config-embedding-mode-internal": train + ["--config", str(config)],
        # usage errors from argparse
        "missing-required-flag": ["train", "--train", toy_path],
        "hidden-not-int": train + ["--hidden", "abc"],
        "unknown-flag": train + ["--bogus"],
        "tag-with-config": ["tag", "--model", tag_model, "--input", toy_path,
                            "--output", tagged, "--config", str(bad_json)],
        "tag-with-seed": ["tag", "--model", tag_model, "--input", toy_path,
                          "--output", tagged, "--seed", "-5"],
        "eval-with-seed": ["eval", "--gold", toy_path, "--seed", "1"],
        "stats-with-config": ["stats", toy_path, "--config", str(config)],
        "selfcheck-with-seed": ["selfcheck", "--seeds", "1", "--seed", "3"],
        # --quiet belongs to train and ablate only
        "tag-with-quiet": ["tag", "--model", tag_model, "--input", toy_path,
                           "--output", tagged, "--quiet"],
        "eval-with-quiet": ["eval", "--gold", toy_path, "--quiet"],
        "stats-with-quiet": ["stats", toy_path, "--quiet"],
        "selfcheck-with-quiet": ["selfcheck", "--seeds", "1", "--quiet"],
        # refused before any training
        "empty-train-corpus": train + ["--train", str(empty)],
        # the base architecture, checked before any row trains
        "ablate-layers-0": ablate + ["--preset", "table4", "--layers", "0"],
        "ablate-hidden-0": ablate + ["--preset", "table4", "--hidden", "0"],
        # an input that is not a regular file is refused before any read
        "train-regex-file-full": train + regex + ["/dev/full"],
        "ablate-rows-null": ablate + ["--rows", os.devnull],
        "tag-model-null": ["tag", "--model", os.devnull, "--input", toy_path,
                           "--output", tagged],
        "eval-gold-full": ["eval", "--gold", "/dev/full"],
        "stats-file-null": ["stats", os.devnull],
        "out-in-missing-directory":
            train + ["--out", str(tmp_path / "none" / "m.sqtg")],
        "out-is-a-directory": train + ["--out", str(tmp_path)],
        "out-empty": train + ["--out", ""],
        "ablate-out-in-missing-directory":
            ablate + ["--preset", "table5", "--out", str(tmp_path / "none" / "abl")],
        "ablate-save-models-is-a-file":
            ablate + ["--preset", "table5", "--save-models", str(bad_json)],
        "log-is-a-directory": train,
        "ablate-tsv-is-a-directory": ablate + ["--preset", "table5"],
        # run with sys.stdout open on /dev/full
        "stats-stdout-full": ["stats", toy_path],
        "eval-stdout-full": ["eval", "--gold", toy_path],
        "selfcheck-stdout-full": ["selfcheck", "--seeds", "1"],
        "lr-nan": train + ["--lr", "nan"],
        "lr-inf": train + ["--lr", "inf"],
        "clip-nan": train + ["--clip", "nan"],
        "clip-inf": train + ["--clip", "inf"],
    }[case]


PREMADE_DIRECTORIES = {"log-is-a-directory": "m.sqtg.log",
                       "ablate-tsv-is-a-directory": "abl.tsv",
                       "tag-manifest-directory": "tagged.conll.manifest.json"}

# cases that must fail before a given step, whose function is replaced
NOT_REACHED = {"config-scheme-lowercase": (corpus, "read_conll"),
               "config-cell-unknown": (corpus, "read_conll"),
               "config-embedding-mode-internal": (corpus, "read_conll"),
               "row-embedding-mode-unknown": (corpus, "read_conll"),
               "row-embedding-mode-internal": (corpus, "read_conll"),
               "row-embedding-mode-capitalized": (corpus, "read_conll"),
               "row-cell-unknown": (corpus, "read_conll"),
               "row-unknown-feature": (corpus, "read_conll"),
               "entity-type-hyphen": (corpus, "read_conll"),
               "entity-type-space": (corpus, "read_conll"),
               "entity-type-repeated": (corpus, "read_conll"),
               "tag-manifest-directory": (model, "load"),
               "tag-output-missing-directory": (model, "load")}

CONFIG_CASES = {
    "config-str-for-int": {"layers": "2"},
    "config-bool-for-int": {"layers": True},
    "config-str-for-float": {"dropout": "0.5"},
    "config-int-for-bool": {"bidi": 1},
    "config-null": {"layers": None},
    "seed-negative-in-config": {"seed": -1},
    "unknown-config-key": {"hidden": 4, "hiden": 4},
    "config-scheme-lowercase": {"scheme": "iob1"},
    "config-cell-unknown": {"cell": "gru"},
    "config-embedding-mode-internal": {"embedding_mode": "pretrained"},
}

ROW_CASES = {
    "row-unknown-key": {"dropuot": 0.0},
    "row-str-for-bool": {"bidirectional": "no"},
    "row-str-for-int": {"layers": "2"},
    "row-bool-for-float": {"dropout": True},
    "row-embedding-mode-unknown": {"embedding_mode": "bogus"},
    "row-embedding-mode-internal": {"embedding_mode": "pretrained"},
    "row-embedding-mode-capitalized": {"embedding_mode": "Random"},
    "row-cell-unknown": {"cell": "gru"},
    "row-unknown-feature": {"features": ["word", "chunkk"]},
}

USER_ERROR_MESSAGES = {
    "deep-config": "deep.json: invalid JSON: maximum recursion depth",
    "deep-rows": "deep.json: invalid JSON: maximum recursion depth",
    "row-without-name": "rows.json: row 1: missing key 'name'",
    "row-unknown-key": "badrows.json: row 2: unknown key 'dropuot'",
    "row-str-for-bool":
        "badrows.json: row 2: key 'bidirectional' must be bool, got 'no'",
    "row-str-for-int": "badrows.json: row 2: key 'layers' must be int, got '2'",
    "row-bool-for-float":
        "badrows.json: row 2: key 'dropout' must be float, got True",
    "row-embedding-mode-unknown":
        "badrows.json: row 2: key 'embedding_mode' must be one of skipgram, "
        "random, onehot, got 'bogus'",
    "row-embedding-mode-internal":
        "badrows.json: row 2: key 'embedding_mode' must be one of skipgram, "
        "random, onehot, got 'pretrained'",
    "row-embedding-mode-capitalized":
        "badrows.json: row 2: key 'embedding_mode' must be one of skipgram, "
        "random, onehot, got 'Random'",
    "row-cell-unknown":
        "badrows.json: row 2: key 'cell' must be one of lstm, rnn, got 'gru'",
    "row-unknown-feature": "badrows.json: row 2: unknown features: ['chunkk']",
    "entity-type-hyphen": "entity types 'PER,LOC,ORG,MISC,X-Y': 'X-Y' is not "
                          "a name of letters, digits and underscores",
    "entity-type-space": "entity types 'PER,LOC,ORG,MISC,X Y': 'X Y' is not "
                         "a name of letters, digits and underscores",
    "entity-type-repeated":
        "entity types 'PER,PER,LOC,ORG,MISC': 'PER' is listed twice",
    "hidden-1e8": "error: cannot allocate the model: ",
    "embedding-dim-1e15": "error: cannot allocate the model: ",
    "config-str-for-int": "config key 'layers' must be int, got '2'",
    "config-bool-for-int": "config key 'layers' must be int, got True",
    "config-str-for-float": "config key 'dropout' must be float, got '0.5'",
    "config-int-for-bool": "config key 'bidi' must be bool, got 1",
    "config-null": "config key 'layers' must be int, got None",
    "eval-gold-directory": "cannot read {tmp}: Is a directory",
    "tag-input-directory": "cannot read {tmp}: Is a directory",
    "tag-model-directory": "cannot read {tmp}: Is a directory",
    "tag-output-directory": "cannot write {tmp}: Is a directory",
    "tag-output-full": "cannot write /dev/full: No space left on device",
    "tag-manifest-directory":
        "cannot write {tmp}/tagged.conll.manifest.json: Is a directory",
    "tag-output-missing-directory":
        "cannot write {tmp}/none/tagged.conll: No such file or directory",
    "iob1-sequence-error":
        "iob1.conll: near line 3: position 1: 'B-PER' is not preceded by an "
        "entity of the same type (IOB1)",
    "seed-negative": "--seed must be >= 0, got -1",
    "seed-negative-in-config": "--seed must be >= 0, got -1",
    "unknown-config-key": "config.json: unknown config key 'hiden'",
    "config-scheme-lowercase":
        "config.json: config key 'scheme' must be one of IOB1, IOB2, got 'iob1'",
    "config-cell-unknown":
        "config.json: config key 'cell' must be one of lstm, rnn, got 'gru'",
    "config-embedding-mode-internal":
        "config.json: config key 'embedding_mode' must be one of skipgram, "
        "random, onehot, got 'pretrained'",
    "missing-required-flag": "the following arguments are required: --dev",
    "hidden-not-int": "argument --hidden: invalid int value: 'abc'",
    "unknown-flag": "unrecognized arguments: --bogus",
    "tag-with-config": "unrecognized arguments: --config",
    "tag-with-seed": "unrecognized arguments: --seed -5",
    "eval-with-seed": "unrecognized arguments: --seed 1",
    "stats-with-config": "unrecognized arguments: --config",
    "selfcheck-with-seed": "unrecognized arguments: --seed 3",
    "tag-with-quiet": "unrecognized arguments: --quiet",
    "eval-with-quiet": "unrecognized arguments: --quiet",
    "stats-with-quiet": "unrecognized arguments: --quiet",
    "selfcheck-with-quiet": "unrecognized arguments: --quiet",
    "empty-train-corpus": "{tmp}/empty.conll: no sentences",
    "ablate-layers-0": "layers must be >= 1, got 0",
    "ablate-hidden-0": "hidden must be >= 1, got 0",
    "train-regex-file-full": "cannot read /dev/full: not a regular file",
    "ablate-rows-null": f"cannot read {os.devnull}: not a regular file",
    "tag-model-null": f"cannot read {os.devnull}: not a regular file",
    "eval-gold-full": "cannot read /dev/full: not a regular file",
    "stats-file-null": f"cannot read {os.devnull}: not a regular file",
    "out-in-missing-directory":
        "cannot write {tmp}/none/m.sqtg: No such file or directory",
    "out-is-a-directory": "cannot write {tmp}: Is a directory",
    "out-empty": "cannot write : No such file or directory",
    "ablate-out-in-missing-directory":
        "cannot write {tmp}/none/abl.txt: No such file or directory",
    "ablate-save-models-is-a-file": "cannot write {tmp}/bad.json: Not a directory",
    "log-is-a-directory": "cannot write {tmp}/m.sqtg.log: Is a directory",
    "ablate-tsv-is-a-directory": "cannot write {tmp}/abl.tsv: Is a directory",
    "stats-stdout-full": "cannot write <stdout>: No space left on device",
    "eval-stdout-full": "cannot write <stdout>: No space left on device",
    "selfcheck-stdout-full": "cannot write <stdout>: No space left on device",
    "lr-nan": "learning_rate must be finite and > 0, got nan",
    "lr-inf": "learning_rate must be finite and > 0, got inf",
    "clip-nan": "clip_norm must be finite and > 0, got nan",
    "clip-inf": "clip_norm must be finite and > 0, got inf",
}

NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")

USAGE_ERRORS = ["missing-required-flag", "hidden-not-int", "unknown-flag",
                "tag-with-config", "tag-with-seed", "eval-with-seed",
                "stats-with-config", "selfcheck-with-seed", "tag-with-quiet",
                "eval-with-quiet", "stats-with-quiet", "selfcheck-with-quiet"]


@pytest.mark.parametrize("case", ["hidden-zero", "layers-huge", "hidden-1e8",
                                  "embedding-dim-1e15", "negative-lr",
                                  "missing-config", "invalid-config",
                                  "missing-rows", "deep-config", "deep-rows",
                                  "row-without-name",
                                  "row-unknown-key", "row-str-for-bool",
                                  "row-str-for-int", "row-bool-for-float",
                                  "row-embedding-mode-unknown",
                                  "row-embedding-mode-internal",
                                  "row-embedding-mode-capitalized",
                                  "row-cell-unknown", "row-unknown-feature",
                                  "entity-type-hyphen", "entity-type-space",
                                  "entity-type-repeated",
                                  "model-without-pipeline",
                                  "embedding-dim-zero",
                                  "embedding-dim-negative",
                                  "missing-regex-file", "malformed-regex-file",
                                  "max-len-zero", "selfcheck-zero-seeds",
                                  "unused-missing-regex-file",
                                  "unused-missing-embeddings",
                                  "ablate-unused-missing-regex-file",
                                  "binary-corpus", "directory-corpus",
                                  "config-str-for-int", "config-bool-for-int",
                                  "config-str-for-float", "config-int-for-bool",
                                  "config-null", "eval-gold-directory",
                                  "tag-input-directory", "tag-model-directory",
                                  "tag-output-directory", "tag-binary-input",
                                  pytest.param("tag-output-full",
                                               marks=NEEDS_DEV_FULL),
                                  "tag-manifest-directory",
                                  "tag-output-missing-directory",
                                  "iob1-sequence-error",
                                  "seed-negative",
                                  "seed-negative-in-config",
                                  "unknown-config-key", "empty-train-corpus",
                                  "config-scheme-lowercase",
                                  "config-cell-unknown",
                                  "config-embedding-mode-internal",
                                  "ablate-layers-0", "ablate-hidden-0",
                                  pytest.param("train-regex-file-full",
                                               marks=NEEDS_DEV_FULL),
                                  "ablate-rows-null", "tag-model-null",
                                  pytest.param("eval-gold-full",
                                               marks=NEEDS_DEV_FULL),
                                  "stats-file-null",
                                  "out-in-missing-directory",
                                  "out-is-a-directory", "out-empty",
                                  "ablate-out-in-missing-directory",
                                  "ablate-save-models-is-a-file",
                                  "log-is-a-directory",
                                  "ablate-tsv-is-a-directory",
                                  pytest.param("stats-stdout-full",
                                               marks=NEEDS_DEV_FULL),
                                  pytest.param("eval-stdout-full",
                                               marks=NEEDS_DEV_FULL),
                                  pytest.param("selfcheck-stdout-full",
                                               marks=NEEDS_DEV_FULL),
                                  "lr-nan", "lr-inf", "clip-nan", "clip-inf"]
                         + USAGE_ERRORS)
def test_user_errors_exit_1_with_message(tmp_path, toy_path, capsys,
                                         monkeypatch, case):
    argv = _user_error_args(tmp_path, toy_path, case)
    listing = sorted(p.name for p in tmp_path.iterdir())

    def no_training(*args, **kwargs):
        raise AssertionError("a user error must be caught before training")

    def not_reached(*args, **kwargs):
        raise AssertionError(f"{case} must fail before this step")

    monkeypatch.setattr(train_module, "train", no_training)
    if case in NOT_REACHED:
        monkeypatch.setattr(*NOT_REACHED[case], not_reached)
    if case.endswith("-stdout-full"):
        monkeypatch.setattr(sys, "stdout", open("/dev/full", "w"))
    try:
        rc = cli.main(argv)
    finally:
        if case.endswith("-stdout-full"):
            with suppress(OSError):  # close retries the failed write
                sys.stdout.close()
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == listing
    if case == "tag-manifest-directory":
        assert not (tmp_path / "tagged.conll").exists()
    if case in USER_ERROR_MESSAGES:
        assert USER_ERROR_MESSAGES[case].format(tmp=tmp_path) in err
    if case in USAGE_ERRORS:
        assert err.splitlines()[1].startswith("usage: seqtag")


@NEEDS_DEV_FULL
def test_train_write_error_exits_1_with_message(toy_path, capsys):
    # training runs before the model is written, so the model is tiny
    rc = cli.main(["train", "--train", toy_path, "--dev", toy_path,
                   "--out", "/dev/full", "--hidden", "2", "--layers", "1",
                   "--embedding-dim", "4", "--max-epochs", "1", "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["train", "-h"],
                                  ["tag", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# every option flag of train and ablate, with its choices and help text
OPTION_HELP = ["--seed SEED", "--embedding-mode {skipgram,random,onehot}",
               "--embedding-dim EMBEDDING_DIM",
               "--features FEATURES comma list from word,pos,chunk,case,regex",
               "--entity-types ENTITY_TYPES",
               "--scheme {IOB1,IOB2} label scheme of the input files",
               "--max-len MAX_LEN", "--hidden HIDDEN", "--layers LAYERS",
               "--cell {lstm,rnn}", "[--bidi | --no-bidi]",
               "--dropout DROPOUT", "--lr LR", "--clip CLIP",
               "--patience PATIENCE", "--max-epochs MAX_EPOCHS"]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_help_lists_every_option_flag(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for entry in OPTION_HELP:
        assert entry in text, entry
    with pytest.raises(cli.CliError, match="not allowed with argument"):
        cli.build_parser().parse_args([command, "--bidi", "--no-bidi"])


def test_config_int_is_a_valid_float(tmp_path, toy_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dropout": 0, "lr": 1}), encoding="utf-8")
    rc, out = _train(tmp_path, toy_path, "--config", str(config))
    assert rc == 0
    options = json.load(open(out + ".manifest.json"))["options"]
    assert (options["dropout"], options["lr"]) == (0, 1)


def test_train_and_ablate_row_store_the_same_pipeline(tmp_path, toy_path):
    # --regex-file is named but no run enables regex: neither stores rules
    rules = ["--regex-file", cli.default_regex_file()]
    rc, out = _train(tmp_path, toy_path, *rules)
    assert rc == 0
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([{"name": "word", "features": ["word"]}]),
                    encoding="utf-8")
    models_dir = tmp_path / "models"
    rc = cli.main(["ablate", "--train", toy_path, "--dev", toy_path,
                   "--rows", str(rows), "--seed", "7",
                   "--out", str(tmp_path / "abl"),
                   "--save-models", str(models_dir)] + FAST + rules)
    assert rc == 0
    trained = model.load(out).extra
    assert trained["regex_rules"] is None
    assert model.load(str(models_dir / "word.sqtg")).extra == trained


def test_path_objects_accepted(tmp_path, toy_path):
    # pathlib.Path works wherever a filename string does
    import pathlib

    from seqtag import corpus as corpus_mod
    sents = corpus_mod.read_conll(pathlib.Path(toy_path))
    assert len(sents) == 50
    out = tmp_path / "copy.conll"
    corpus_mod.write_conll(sents, out)
    assert len(corpus_mod.read_conll(out)) == 50


def test_config_file_precedence(tmp_path, toy_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"hidden": 6, "layers": 1}), encoding="utf-8")
    out = str(tmp_path / "m.sqtg")
    rc = cli.main(["train", "--train", toy_path, "--dev", toy_path,
                   "--seed", "7", "--config", str(cfg), "--hidden", "5",
                   "--embedding-dim", "8", "--max-epochs", "1",
                   "--patience", "1", "--quiet", "--out", out])
    assert rc == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["options"]["hidden"] == 5   # flag beats config file
    assert manifest["options"]["layers"] == 1   # config file beats default
    assert manifest["options"]["cell"] == "lstm"  # built-in default
    tagger = model.load(out)
    assert tagger.config.hidden == 5
    assert tagger.config.layers == 1


def test_python_m_seqtag_runs_the_cli(tmp_path):
    # `python -m seqtag.cli` warns that runpy found the module imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-m", "seqtag", "--version"],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, cli.__version__ + "\n", "")


def test_tag_roundtrip_with_random_embeddings_across_processes(tmp_path, toy_path):
    # the model file alone (plus the input) must reproduce the training-time
    # feature pipeline: random-mode vectors are derived per word from the
    # stored seed
    rc, out = _train(tmp_path, toy_path)
    t1 = str(tmp_path / "t1.conll")
    t2 = str(tmp_path / "t2.conll")
    cli.main(["tag", "--model", out, "--input", toy_path, "--output", t1])
    cli.main(["tag", "--model", out, "--input", toy_path, "--output", t2])
    assert open(t1).read() == open(t2).read()


def test_model_container_is_self_describing(tmp_path, toy_path):
    rc, out = _train(tmp_path, toy_path, "--features", "word,pos,chunk,case")
    tagger = model.load(out)
    assert tagger.extra["features"] == ["word", "pos", "chunk", "case"]
    assert tagger.extra["pos_tags"]
    assert tagger.extra["chunk_tags"]
    assert tagger.extra["embedding"]["mode"] == "random"
