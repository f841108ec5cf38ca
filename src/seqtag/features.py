"""Input feature assembly: word embeddings (pretrained / random / one-hot),
POS and chunk one-hot encoders, a surface case feature, and token-level
regex features loaded from a pattern file.

Per-token input vectors are the concatenation, in fixed order, of the
enabled feature blocks: [word | pos | chunk | case | regex].
"""

import hashlib
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import model, numerics

WORD, POS, CHUNK, CASE, REGEX = "word", "pos", "chunk", "case", "regex"
ALL_FEATURES = (WORD, POS, CHUNK, CASE, REGEX)

CASE_CATEGORIES = ("AllCaps", "InitCap", "Lower", "Mixed", "NoLetter")

EMBEDDING_MODES = ("pretrained", "random", "onehot")


class EmbeddingError(ValueError):
    """A vector file is missing or faulty, or a table has no vectors."""


class DimMismatch(EmbeddingError):
    """An embedding line carries the wrong number of values."""


class UnparseableValue(EmbeddingError):
    pass


def oov_bound(dim):
    """Half-width of the uniform range used for randomly initialized word
    vectors: sqrt(3 / dim). dim=300 gives exactly 0.1."""
    return math.sqrt(3.0 / dim)


def _word_stream_key(word):
    # Stable across processes (unlike hash()); keys the per-word RNG stream.
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class EmbeddingTable:
    """word -> float64 vector map with a deterministic OOV policy.

    Unknown words get a uniform[-sqrt(3/dim), +sqrt(3/dim)] vector drawn
    from a stream derived from (seed, word), then cached in `drawn`, apart
    from the given `vectors`, so the same word always maps to the same
    vector regardless of lookup order or process.

    Modes: "pretrained" (vectors loaded from a word2vec text export, with
    an exact -> lowercase -> OOV fallback chain whose first two steps read
    only the file's vectors), "random" (every word drawn from the OOV
    distribution), "onehot" (dim = vocabulary size including a reserved UNK
    slot; a word is a slot, onehot_index, not a vector, so lookup refuses).
    The dim and seed must be int, as model._check_field decides.
    """

    def __init__(self, dim, mode, seed=0, vocab=None):
        if mode not in EMBEDDING_MODES:
            raise ValueError(f"unknown embedding mode {mode!r}")
        model._check_field("embedding dim", dim, int)
        model._check_field("embedding seed", seed, int)
        self.dim, self.mode, self.seed = dim, mode, seed
        self.vectors = {}  # a pretrained table's vectors, as read
        self.drawn = {}  # the OOV draws, as cached
        self.vocab = None
        if mode == "onehot":
            if not vocab:
                raise ValueError("onehot mode needs a vocabulary")
            self.vocab = {w: i for i, w in enumerate(vocab)}
            self.dim = len(self.vocab) + 1  # last slot is UNK
            self.seed = 0  # one-hot vectors draw nothing
        if self.dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"embedding seed must be >= 0, got {self.seed}")
        self._bound = oov_bound(self.dim)

    def _random_vector(self, word):
        rng = numerics.derive_rng(self.seed, _word_stream_key(word))
        return rng.uniform(-self._bound, self._bound, self.dim)

    def onehot_index(self, word):
        """The one slot a one-hot mode word sets (the last one is UNK)."""
        return self.vocab.get(word, self.dim - 1)

    def lookup(self, word):
        if self.mode == "onehot":
            raise EmbeddingError("a one-hot table has no vectors to look up")
        vec = self.vectors.get(word)
        if vec is None:
            vec = self.vectors.get(word.lower())
        if vec is None:
            vec = self.drawn.get(word)
        if vec is None:
            vec = self.drawn[word] = self._random_vector(word)
        return vec

    def __len__(self):
        """The vectors read plus the OOV draws so far."""
        return len(self.vectors) + len(self.drawn)


def load_embeddings(source, expected_dim, seed=0):
    """Load a word2vec-style text export: one "word v1 ... vd" line per word,
    optionally preceded by a "count dim" header. Later duplicates override
    earlier ones."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_embeddings(handle, expected_dim, seed)
    table = EmbeddingTable(expected_dim, "pretrained", seed=seed)
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split()
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                continue  # header line
            except ValueError:
                pass
        word, values = parts[0], parts[1:]
        if len(values) != expected_dim:
            raise DimMismatch(
                f"line {lineno}: expected {expected_dim} values for "
                f"{word!r}, got {len(values)}")
        try:
            table.vectors[word] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise UnparseableValue(f"line {lineno}: {exc}") from None
    return table


def random_table(dim, seed):
    """Table for the all-random input mode: every word, known or not, gets a
    cached uniform vector."""
    return EmbeddingTable(dim, "random", seed=seed)


def embedding_table(mode, dim, seed, vocab=None, path=None):
    """The table for one embedding mode. "pretrained" reads the vectors at
    `path`; "onehot" spans `vocab` (first-seen order) plus an UNK slot and
    ignores `dim` and `seed`."""
    if mode != "pretrained":
        return EmbeddingTable(dim, mode, seed=seed, vocab=vocab)
    if not path:
        raise EmbeddingError("skipgram embeddings need a vector file; "
                             "pass --embeddings <file>")
    return load_embeddings(path, dim, seed=seed)


def first_seen(sentences, field):
    """Distinct values of one token field (surface, pos, chunk) in
    first-seen order."""
    return list(dict.fromkeys(getattr(tok, field)
                              for sent in sentences for tok in sent))


def case_category(surface):
    """Index into CASE_CATEGORIES {AllCaps, InitCap, Lower, Mixed, NoLetter}.

    Unicode-aware; underscores (the multi-syllable joiner) are treated as
    syllable separators, so Ha_Noi-style tokens where every syllable is
    initial-capitalized classify as InitCap.
    """
    if not surface:
        raise ValueError("case_category: empty surface form")
    letters = [c for c in surface if c.isalpha()]
    if not letters:
        category = "NoLetter"
    elif all(c.isupper() for c in letters):
        category = "AllCaps"
    elif _is_init_cap(surface):
        category = "InitCap"
    elif all(c.islower() for c in letters):
        category = "Lower"
    else:
        category = "Mixed"
    return CASE_CATEGORIES.index(category)


def _is_init_cap(surface):
    saw_part = False
    for part in surface.split("_"):
        letters = [c for c in part if c.isalpha()]
        if not letters:
            continue
        saw_part = True
        if not letters[0].isupper():
            return False
        if any(c.isupper() for c in letters[1:]):
            return False
    return saw_part


RULE_SCOPES = ("self", "prev1", "prev2")


@dataclass(frozen=True)
class RegexRule:
    name: str
    scope: str  # which token the pattern tests, relative to the current one
    pattern: str


def _compile_rule(rule, names):
    """`rule`'s compiled pattern, its name added to `names`, the set of the
    rules before it; else a ValueError naming the rule and its fault."""
    if rule.name in names:
        raise ValueError(f"rule {rule.name!r}: duplicate rule name")
    names.add(rule.name)
    if rule.scope not in RULE_SCOPES:
        raise ValueError(f"rule {rule.name!r}: unknown scope {rule.scope!r}")
    try:
        return re.compile(rule.pattern)
    except re.error as exc:
        raise ValueError(f"rule {rule.name!r}: {exc}") from None


@dataclass
class RegexRuleSet:
    rules: list[RegexRule] = field(default_factory=list)

    def __post_init__(self):
        names = set()
        self._regexes = [_compile_rule(r, names) for r in self.rules]
        # (K, the columns of the rules with scope prevK), self being K = 0
        scopes = [RULE_SCOPES.index(r.scope) for r in self.rules]
        self.scope_columns = [
            (k, np.array([j for j, s in enumerate(scopes) if s == k]))
            for k in sorted(set(scopes))]
        self._packed = {}  # one bytes object per distinct match pattern

    @property
    def width(self):
        return len(self.rules)

    def match_bits(self, surface):
        """ceil(width / 8) bytes, little-endian: bit j is set when rule j's
        pattern matches `surface` in full. Equal patterns share one object."""
        bits = sum(1 << j for j, regex in enumerate(self._regexes)
                   if regex.fullmatch(surface))
        return self._packed.setdefault(
            bits, bits.to_bytes((self.width + 7) // 8, "little"))


def load_regex_rules(source):
    """Pattern file: one rule per line, NAME<TAB>SCOPE<TAB>PATTERN, where
    SCOPE is self/prev1/prev2; # starts a comment."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_regex_rules(handle)
    rules, names = [], set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(
                f"regex rule line {lineno}: expected NAME<TAB>SCOPE<TAB>PATTERN")
        rule = RegexRule(*parts)
        try:
            _compile_rule(rule, names)
        except ValueError as exc:
            raise ValueError(f"regex rule line {lineno}: {exc}") from None
        rules.append(rule)
    return RegexRuleSet(rules)


class TagEncoder:
    """Tag ids over a tagset, first-seen order, with a reserved final UNK
    id for tags never seen in training; a tag's block of the input is
    one-hot at its id."""

    def __init__(self, tags):
        self.index = {}
        for tag in tags:
            self.index.setdefault(tag, len(self.index))

    @property
    def width(self):
        return len(self.index) + 1

    def tag_ids(self, tags, offset=0):
        """offset + the id of each tag, UNK for tags outside the tagset."""
        get, unk = self.index.get, len(self.index)
        return [offset + get(tag, unk) for tag in tags]

    def tags(self):
        return list(self.index)


@dataclass
class FeatureConfig:
    """Which feature blocks are enabled. Word is always on."""
    enabled: tuple = (WORD,)

    def __post_init__(self):
        bad = [f for f in self.enabled if f not in ALL_FEATURES]
        if bad:
            raise ValueError(f"unknown features: {bad}")
        if WORD not in self.enabled:
            self.enabled = (WORD,) + tuple(self.enabled)
        # normalize to canonical order
        self.enabled = tuple(f for f in ALL_FEATURES if f in self.enabled)

    def has(self, feature):
        return feature in self.enabled


@dataclass
class FeatureExtractor:
    """Everything needed to turn a Sentence into model inputs."""
    config: FeatureConfig
    table: EmbeddingTable
    pos_encoder: TagEncoder | None = None
    chunk_encoder: TagEncoder | None = None
    rules: RegexRuleSet | None = None
    # surface -> (the table's word vector, or its one-hot index; case
    # category; packed rule match bits), filled on first sight
    _types: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        # each block's width, None for a block without its part
        widths = {WORD: self.table.dim,
                  POS: self.pos_encoder and self.pos_encoder.width,
                  CHUNK: self.chunk_encoder and self.chunk_encoder.width,
                  CASE: len(CASE_CATEGORIES),
                  REGEX: self.rules and self.rules.width}
        self.columns = {}  # the first input column of each enabled block
        self.input_dim = 0
        for feature in self.config.enabled:
            if widths[feature] is None:
                what = "rules" if feature == REGEX else "tag list"
                raise ValueError(f"the {feature} feature is on but has no {what}")
            self.columns[feature] = self.input_dim
            self.input_dim += widths[feature]

    def _new_type(self, surface):
        table = self.table
        record = (table.onehot_index(surface) if table.mode == "onehot"
                  else table.lookup(surface),
                  case_category(surface) if self.config.has(CASE) else 0,
                  self.rules.match_bits(surface)
                  if self.config.has(REGEX) else b"")
        self._types[surface] = record
        return record

    def assemble(self, sentence, out=None):
        """T x D matrix of per-token input vectors, blocks concatenated in
        the fixed order [word | pos | chunk | case | regex]; written into
        `out` when given.

        Each surface form is looked up, case-classified and matched against
        the rules once, on first sight, and later tokens gather that record.
        The table, the encoders and the rules must therefore not change
        after the first call. The records are never dropped: they grow by
        one per distinct surface for the life of the extractor, in one-hot
        mode too, as a random table grows by one vector per unseen word."""
        if not len(sentence):
            raise ValueError("assemble: empty sentence")
        types, new_type = self._types, self._new_type
        words, cases, bits = zip(*[types.get(t.surface) or new_type(t.surface)
                                   for t in sentence])
        T = len(words)
        if out is None:
            out = np.empty((T, self.input_dim))
        cols, dim = self.columns, self.table.dim
        rows = np.arange(T)
        if self.table.mode == "onehot":
            out[:] = 0.0
            out[rows, words] = 1.0
        else:
            out[:, :dim] = words
            out[:, dim:] = 0.0
        hot = []  # per one-hot block, the column each token sets
        if POS in cols:
            hot.append(self.pos_encoder.tag_ids([t.pos for t in sentence],
                                                cols[POS]))
        if CHUNK in cols:
            hot.append(self.chunk_encoder.tag_ids([t.chunk for t in sentence],
                                                  cols[CHUNK]))
        if CASE in cols:
            hot.append([cols[CASE] + c for c in cases])
        if hot:
            out[rows, hot] = 1.0
        if REGEX in cols and self.rules.width:
            col, width = cols[REGEX], self.rules.width
            matches = np.unpackbits(
                np.frombuffer(b"".join(bits), np.uint8).reshape(T, -1),
                axis=1, count=width, bitorder="little")
            # a prevK rule fires on token t when token t-K matches
            for k, cols in self.rules.scope_columns:
                if k < T:
                    out[k:, col + cols] = matches[:T - k, cols]
        return out

    def to_dict(self):
        """JSON-ready record of the pipeline, stored in a saved model so that
        `from_dict` can rebuild it for tagging new text. Pretrained vectors
        are not stored, only the table's mode, width and OOV seed."""
        t = self.table
        return {
            "features": list(self.config.enabled),
            "embedding": {"mode": t.mode, "dim": t.dim, "seed": t.seed,
                          "lowercase_fallback": True,
                          "vocab": list(t.vocab) if t.mode == "onehot" else None},
            "pos_tags": self.pos_encoder.tags() if self.pos_encoder else None,
            "chunk_tags": self.chunk_encoder.tags() if self.chunk_encoder else None,
            "regex_rules": [[r.name, r.scope, r.pattern] for r in self.rules.rules]
                           if self.rules else None,
        }

    @classmethod
    def from_dict(cls, record, embeddings_path=None):
        """Inverse of to_dict. A pretrained-mode record needs the vector
        file it was trained with (EmbeddingError without one); a
        `lowercase_fallback` other than true, never written, is refused. A
        field of another type than to_dict writes is a ValueError, as
        model._check_field decides; the table checks its dim and seed."""
        emb, rules = record["embedding"], record["regex_rules"]
        model._check_field("embedding", emb, dict)
        model._check_field("features", record["features"], list[str])
        for name, tags in [("pos_tags", record["pos_tags"]),
                           ("chunk_tags", record["chunk_tags"]),
                           ("vocab", emb["vocab"])]:
            if tags is not None:
                model._check_field(name, tags, list[str])
        if rules is not None:
            model._check_field("regex_rules", rules, list)
            for rule in rules:
                model._check_field("regex rule", rule, list[str])
        if emb["lowercase_fallback"] is not True:
            raise ValueError(f"lowercase_fallback must be true, got "
                             f"{emb['lowercase_fallback']!r}")
        table = embedding_table(emb["mode"], emb["dim"], emb["seed"],
                                vocab=emb["vocab"], path=embeddings_path)

        def encoder(tags):
            return TagEncoder(tags) if tags is not None else None

        return cls(FeatureConfig(tuple(record["features"])), table,
                   encoder(record["pos_tags"]), encoder(record["chunk_tags"]),
                   RegexRuleSet([RegexRule(*r) for r in rules])
                   if rules is not None else None)


def build_extractor(train_sentences, config, table, rules=None):
    """Fit the categorical encoders on the training corpus and bundle the
    resources behind one object. The rules are kept only when the regex
    feature is on, so the pipeline record names only enabled features."""
    def encoder(feature, field):
        if not config.has(feature):
            return None
        return TagEncoder(first_seen(train_sentences, field))

    if not config.has(REGEX):
        rules = None
    elif rules is None:
        rules = RegexRuleSet([])
    return FeatureExtractor(config, table, encoder(POS, "pos"),
                            encoder(CHUNK, "chunk"), rules)
