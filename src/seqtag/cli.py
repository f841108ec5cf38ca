"""Batch command-line entry points: train, tag, eval, ablate, stats,
selfcheck. Every command that produces an artifact writes a run manifest
next to it (resolved options, seed, input digests) sufficient to rerun the
command bit-identically.

Flag precedence: command line > --config JSON file > built-in defaults.
"""

import argparse
import hashlib
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import resources

from . import __version__, corpus, features, model, selfcheck, train
from .eval import render, score_conll_lines

# Every option of `train` and `ablate`: name -> (default, allowed values or
# None, help). Each is a flag, --<name> with dashes (a bool: --<name> and
# --no-<name>), of its default's type, and a --config key taking its values.
OPTIONS = {
    "seed": (train.TrainConfig.seed, None, None),
    "embedding_mode": (train.ExperimentSetup.embedding_mode,
                       ("skipgram", "random", "onehot"), None),
    "embedding_dim": (train.ExperimentSetup.embedding_dim, None, None),
    "features": (",".join(train.ExperimentSetup.feature_set), None,
                 "comma list from word,pos,chunk,case,regex"),
    "entity_types": (",".join(sorted(train.ExperimentSetup.entity_types)),
                     None, None),
    "scheme": ("IOB2", corpus.SCHEMES, "label scheme of the input files"),
    "max_len": (corpus.DEFAULT_MAX_SENTENCE_LEN, None, None),
    "hidden": (model.TaggerConfig.hidden, None, None),
    "layers": (model.TaggerConfig.layers, None, None),
    "cell": (model.TaggerConfig.cell, tuple(model.GATE_COUNT), None),
    "bidi": (model.TaggerConfig.bidirectional, None, None),
    "dropout": (model.TaggerConfig.dropout, None, None),
    "lr": (train.TrainConfig.learning_rate, None, None),
    "clip": (train.TrainConfig.clip_norm, None, None),
    "patience": (train.TrainConfig.patience, None, None),
    "max_epochs": (train.TrainConfig.max_epochs, None, None),
}
DEFAULTS = {name: default for name, (default, _, _) in OPTIONS.items()}


class CliError(Exception):
    def __init__(self, message, exit_code=1):
        super().__init__(message)
        self.exit_code = exit_code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here that is a CliError (exit 1,
    as for every other user error) carrying the usage line. Flags must be
    spelled out: an abbreviation such as `selfcheck --seed` would otherwise
    silently mean `--seeds`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def default_regex_file():
    return str(resources.files("seqtag").joinpath("data/vi_regex_rules.txt"))


def toy_corpus_file():
    return str(resources.files("seqtag").joinpath("data/toy.conll"))


@contextmanager
def _io_errors(verb, path, errors=()):
    """Inside the block, an OSError becomes the CliError `cannot <verb>
    <path>: <strerror>`, and an exception of a type in `errors` the
    CliError `<path>: <message>`: exit 1, no traceback."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot {verb} {path}: {exc.strerror}")
    except errors as exc:
        raise CliError(f"{path}: {exc}")


def _write_text(path, text):
    with _io_errors("write", path), open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _print(text):
    """Write `text` to stdout and flush it, so that a failed write surfaces
    here, as `cannot write <stdout>`, and not at interpreter exit."""
    with _io_errors("write", "<stdout>"):
        sys.stdout.write(text)
        sys.stdout.flush()


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    options: dict
    seed: int
    input_digests: dict = field(default_factory=dict)
    artifact_version: str = __version__

    def add_inputs(self, *paths):
        """Hash each named input into `input_digests`."""
        for path in filter(None, paths):
            with _io_errors("read", path):
                self.input_digests[path] = _sha256(path)

    def write(self, path):
        _write_text(path, json.dumps(asdict(self), ensure_ascii=False,
                                     indent=2, sort_keys=True) + "\n")


def resolve_options(args):
    """Materialize every option: command line beats the --config file beats
    DEFAULTS. argparse defaults are None so an unset flag is detectable.
    Every key of a config file must be an option, and its value must have
    the type of the option's default and be one of its allowed values."""
    from_file = {}
    if getattr(args, "config", None):
        from_file = _read_json(args.config, "config file")
        _check_record(from_file, {k: type(v) for k, v in DEFAULTS.items()},
                      args.config, "config key")
    resolved = {}
    for name, default in DEFAULTS.items():
        value = getattr(args, name, None)
        resolved[name] = from_file.get(name, default) if value is None else value
    if resolved["seed"] < 0:
        raise CliError(f"--seed must be >= 0, got {resolved['seed']}")
    return resolved


def _check_record(record, types, where, noun):
    """Exit 1, naming `where`, unless `record` is a JSON object whose every
    key is in `types` with a value of that key's type and, for a key named
    in OPTIONS, one of its allowed values, as model._check_field decides."""
    model._check_field(where, record, dict, error=CliError)
    for key, value in record.items():
        if key not in types:
            raise CliError(f"{where}: unknown {noun} {key!r}")
        allowed = OPTIONS[key][1] if key in OPTIONS else None
        model._check_field(f"{where}: {noun} {key!r}", value, types[key],
                           allowed, CliError)


def _read_json(path, what):
    try:
        with _io_errors("read", f"{what} {path}"), \
                open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}")


def _parse_feature_list(text):
    parts = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    return features.FeatureConfig(parts if parts else (features.WORD,))

def _parse_entity_types(text):
    """The sorted names of a comma list of entity types. Each must fit the
    label grammar, as B-<name> and I-<name>, and appear once."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    for k, name in enumerate(names):
        if not re.fullmatch(corpus.ENTITY_TYPE, name):
            raise CliError(f"entity types {text!r}: {name!r} is not a name "
                           f"of letters, digits and underscores")
        if name in names[:k]:
            raise CliError(f"entity types {text!r}: {name!r} is listed twice")
    return tuple(sorted(names))


def _read_corpus(path, entity_types, scheme):
    with _io_errors("read", path, (corpus.CorpusError, UnicodeDecodeError)):
        return corpus.read_conll(path, entity_types=entity_types, scheme=scheme)


def _embedding_mode(name):
    # the flag says "skipgram" for vectors trained externally; internally
    # that is the pretrained table
    return "pretrained" if name == "skipgram" else name


def _check_paths(outputs, inputs):
    """Fail before anything is read if an output cannot be created (it is a
    directory, or its directory is missing) or is the same file as an
    input, or if an input exists as neither a regular file nor a directory:
    a device or a FIFO may never end."""
    inputs = [path for path in inputs if path and os.path.exists(path)]
    for path in outputs:
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: Is a directory")
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise CliError(f"cannot write {path}: No such file or directory")
        for source in inputs:
            if os.path.exists(path) and os.path.samefile(path, source):
                raise CliError(f"cannot write {path}: it is the input {source}")
    for path in inputs:
        if not (os.path.isfile(path) or os.path.isdir(path)):
            raise CliError(f"cannot read {path}: not a regular file")


def _setup(args, opts, rows=()):
    """The ExperimentSetup and TrainConfig that `train` and `ablate` share:
    read the corpora, split long sentences, load the regex rules when the
    base features or any row enable the regex feature, and check the base
    architecture and the training options before any training."""
    entity_types = _parse_entity_types(opts["entity_types"])

    def read(path):
        return _read_corpus(path, entity_types, opts["scheme"])

    try:
        feature_set = _parse_feature_list(opts["features"]).enabled
        train_sents = corpus.split_long(read(args.train), opts["max_len"])
        dev_sents = corpus.split_long(read(args.dev), opts["max_len"])
    except ValueError as exc:
        raise CliError(str(exc))
    for path, sents in ((args.train, train_sents), (args.dev, dev_sents)):
        if not sents:
            raise CliError(f"{path}: no sentences")
    score_sents = read(args.test) if getattr(args, "test", None) else None
    rules = None
    if any(features.REGEX in fs for fs in [feature_set] + [
            overrides.get("feature_set", ()) for _, overrides in rows]):
        path = args.regex_file or default_regex_file()
        with _io_errors("read", path, ValueError):
            rules = features.load_regex_rules(path)
    setup = train.ExperimentSetup(
        train_sentences=train_sents, dev_sentences=dev_sents,
        score_sentences=score_sents, entity_types=entity_types,
        feature_set=feature_set,
        embedding_mode=_embedding_mode(opts["embedding_mode"]),
        embedding_dim=opts["embedding_dim"], embeddings_path=args.embeddings,
        regex_rules=rules, hidden=opts["hidden"], layers=opts["layers"],
        cell=opts["cell"], bidirectional=opts["bidi"], dropout=opts["dropout"])
    try:
        setup.tagger_config(input_dim=1)
        return setup, train.TrainConfig(
            learning_rate=opts["lr"], clip_norm=opts["clip"],
            max_epochs=opts["max_epochs"], patience=opts["patience"],
            seed=opts["seed"])
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_train(args):
    inputs = (args.train, args.dev, args.embeddings, args.regex_file,
              args.config)
    _check_paths((args.out, args.out + ".log", args.out + ".manifest.json"),
                 inputs)
    opts = resolve_options(args)
    setup, tcfg = _setup(args, opts)
    manifest = RunManifest("train", opts, opts["seed"])
    manifest.add_inputs(*inputs)  # an unreadable input fails before training
    try:
        tagger, extractor = train.build_tagger(setup, opts["seed"])
    except (features.DimMismatch, features.UnparseableValue,
            UnicodeDecodeError) as exc:
        raise CliError(f"{args.embeddings}: {exc}")
    except ValueError as exc:
        raise CliError(str(exc))
    except MemoryError as exc:  # an architecture past any address space
        raise CliError(f"cannot allocate the model: {exc}")

    progress = None
    if not args.quiet:
        def progress(entry):
            _print(f"epoch {entry.epoch}: loss {entry.loss:.4f} "
                   f"dev_f1 {entry.dev_f1:.2f} ({entry.seconds:.1f}s)\n")

    try:
        best, log = train.train(tagger, setup.train_sentences,
                                setup.dev_sentences, extractor, tcfg,
                                progress=progress)
    except train.NonFiniteLoss as exc:
        raise CliError(str(exc), exit_code=2)

    with _io_errors("write", args.out):
        model.save(best, args.out)
    _write_text(args.out + ".log", log.to_text())
    manifest.write(args.out + ".manifest.json")
    if not args.quiet:
        _print(f"best epoch {log.best_epoch}: dev F1 {log.best_dev_f1:.2f}\n"
               f"model written to {args.out}\n")
    return 0


def _read_tag_input(path):
    """Input for tagging: CoNLL lines with or without a gold label column,
    as the first token line shows. Returns (sentences, has_gold)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    first = next(filter(None, map(corpus.split_columns, lines)), [])
    has_gold = len(first) >= 4
    columns = corpus.ColumnMap() if has_gold else corpus.ColumnMap(label=None)
    return corpus.read_conll(lines, columns, entity_types=None,
                             strict=False), has_gold


def cmd_tag(args):
    outputs = (args.output, args.output + ".manifest.json") if args.output else ()
    _check_paths(outputs, (args.model, args.input, args.embeddings))
    manifest = RunManifest("tag", {"model": args.model, "input": args.input,
                                   "embeddings": args.embeddings,
                                   "output": args.output}, None)
    if args.output:  # the digests of the files as they are read
        manifest.add_inputs(args.model, args.input, args.embeddings)
    try:
        tagger, extractor = train.load_tagger(args.model, args.embeddings)
    except OSError as exc:
        raise CliError(f"cannot read {exc.filename or args.model}: "
                       f"{exc.strerror}")
    except model.ModelFormatError as exc:
        raise CliError(f"{args.model}: {type(exc).__name__}: {exc}")
    except (features.EmbeddingError, UnicodeDecodeError) as exc:
        raise CliError(f"{args.embeddings or args.model}: {exc}")
    with _io_errors("read", args.input,
                    (corpus.CorpusError, UnicodeDecodeError)):
        sentences, has_gold = _read_tag_input(args.input)

    train.tag_corpus(tagger, extractor, sentences)

    if not args.output:
        text = io.StringIO()
        corpus.write_conll(sentences, text, gold=has_gold)
        _print(text.getvalue())
    else:
        with _io_errors("write", args.output):
            corpus.write_conll(sentences, args.output, gold=has_gold)
        manifest.seed = extractor.table.seed
        manifest.write(args.output + ".manifest.json")
    return 0


def cmd_eval(args):
    _check_paths((), (args.gold,))
    types = _parse_entity_types(args.types) if args.types else None
    with _io_errors("read", args.gold, ValueError):
        report = score_conll_lines(args.gold, types=types)
    _print(render(report))
    return 0


def cmd_stats(args):
    _check_paths((), (args.file,))
    entity_types = _parse_entity_types(
        args.entity_types or DEFAULTS["entity_types"])
    sentences = _read_corpus(args.file, entity_types, "IOB2")
    _print(corpus.render_stats(corpus.stats(sentences)))
    return 0


# the keys of a row spec and the type of each value
ROW_KEYS = {"name": str, "features": list[str], "embedding_mode": str,
            "cell": str, "bidirectional": bool, "layers": int, "dropout": float}


def _read_rows(path):
    """The rows of a row-spec file, as `(name, overrides)` pairs: a JSON
    list of objects, each checked before any training as a --config file is
    (`embedding_mode` and `cell` take their flags' values), and each with a
    name."""
    specs = _read_json(path, "row-spec file")
    model._check_field(path, specs, list, error=CliError)
    rows = []
    for n, spec in enumerate(specs, 1):
        _check_record(spec, ROW_KEYS, f"{path}: row {n}", "key")
        if "name" not in spec:
            raise CliError(f"{path}: row {n}: missing key 'name'")
        overrides = {k: v for k, v in spec.items() if k != "name"}
        if "features" in overrides:
            try:
                overrides["feature_set"] = features.FeatureConfig(
                    tuple(overrides.pop("features"))).enabled
            except ValueError as exc:
                raise CliError(f"{path}: row {n}: {exc}")
        if "embedding_mode" in overrides:
            overrides["embedding_mode"] = _embedding_mode(
                overrides["embedding_mode"])
        rows.append((spec["name"], overrides))
    return rows


def cmd_ablate(args):
    prefix = args.out or "ablation"
    inputs = (args.train, args.dev, args.test, args.embeddings,
              args.regex_file, args.rows, args.config)
    _check_paths((prefix + ".txt", prefix + ".tsv", prefix + ".manifest.json"),
                 inputs)
    if args.save_models is not None and os.path.exists(args.save_models) \
            and not os.path.isdir(args.save_models):
        raise CliError(f"cannot write {args.save_models}: Not a directory")
    opts = resolve_options(args)
    if args.preset:
        if args.preset not in train.ABLATION_PRESETS:
            raise CliError(f"unknown preset {args.preset!r}; choose from "
                           f"{sorted(train.ABLATION_PRESETS)}")
        rows = train.ABLATION_PRESETS[args.preset]
    elif args.rows:
        rows = _read_rows(args.rows)
    else:
        raise CliError("give --preset or --rows")

    setup, tcfg = _setup(args, opts, rows)
    manifest = RunManifest("ablate", opts, opts["seed"])
    manifest.add_inputs(*inputs)  # an unreadable input fails before training
    results = train.ablate(setup, rows, tcfg, save_dir=args.save_models)

    text = train.render_ablation(results)
    if not args.quiet:
        _print(text)
    _write_text(prefix + ".txt", text)
    _write_text(prefix + ".tsv", train.ablation_tsv(results))
    manifest.write(prefix + ".manifest.json")
    return 0


def cmd_selfcheck(args):
    try:
        grad = selfcheck.check_gradients(seeds=range(args.seeds),
                                         corrupt=args.corrupt_gradient)
    except ValueError as exc:
        raise CliError(str(exc))
    _print(f"gradient check: worst relative error {grad.worst_error:.3e} "
           f"over {args.seeds} seeds (tolerance "
           f"{selfcheck.GRADIENT_TOLERANCE:.0e}) -> "
           f"{'PASS' if grad.passed else 'FAIL'}\n")
    diffs = selfcheck.check_scorer()
    scorer_ok = not diffs
    _print(f"scorer oracle: {len(diffs)} discrepancies over "
           f"{selfcheck.SCORER_PAIRS} random sentence pairs scored as one "
           f"corpus -> {'PASS' if scorer_ok else 'FAIL'}\n")
    for d in diffs[:10]:
        _print(f"  {d}\n")
    if grad.passed and scorer_ok:
        return 0
    return 3


def build_parser():
    parser = _ArgumentParser(
        prog="seqtag",
        description="Bi-LSTM named entity tagger: train, tag, evaluate, "
                    "run ablations, corpus stats, and self checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def train_flags(p):
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--config", default=None,
                       help="JSON file of option defaults")
        p.add_argument("--train", required=True, help="training CoNLL file")
        p.add_argument("--dev", required=True, help="validation CoNLL file")
        p.add_argument("--embeddings", default=None,
                       help="word2vec text export (skipgram mode)")
        p.add_argument("--regex-file", dest="regex_file", default=None)
        for name, (default, allowed, text) in OPTIONS.items():
            flag = "--" + name.replace("_", "-")
            if not isinstance(default, bool):
                p.add_argument(flag, type=type(default), choices=allowed, help=text)
                continue
            pair = p.add_mutually_exclusive_group()
            pair.add_argument(flag, action="store_true", default=None, help=text)
            pair.add_argument("--no-" + flag[2:], dest=name, action="store_false")

    p = sub.add_parser("train", help="train a tagger")
    train_flags(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a CoNLL file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="default: stdout")
    p.add_argument("--embeddings", default=None)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score a file with gold and predicted "
                                    "label columns (conlleval convention)")
    p.add_argument("--gold", required=True,
                   help="file with gold second-to-last, predictions last")
    p.add_argument("--types", default=None,
                   help="restrict scoring to these entity types")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="rerun training across configurations")
    train_flags(p)
    p.add_argument("--test", default=None,
                   help="CoNLL file to score rows on (default: dev)")
    p.add_argument("--preset", default=None,
                   help="table3|table4|table5|table6|table7")
    p.add_argument("--rows", default=None, help="JSON row-spec file")
    p.add_argument("--out", default=None, help="output prefix")
    p.add_argument("--save-models", dest="save_models", default=None,
                   help="directory to retain each row's trained model")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("stats", help="entity statistics of a CoNLL file")
    p.add_argument("file")
    p.add_argument("--entity-types", dest="entity_types", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("selfcheck", help="run the gradient and scorer checks")
    p.add_argument("--seeds", type=int, default=selfcheck.GRADIENT_SEEDS)
    p.add_argument("--corrupt-gradient", dest="corrupt_gradient",
                   action="store_true",
                   help="negative control: corrupt one gradient entry")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
