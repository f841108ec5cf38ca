import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import assemble_reference, case_feature, encode, regex_features
from seqtag import cli
from seqtag.corpus import Sentence, Token
from seqtag.features import (ALL_FEATURES, CASE_CATEGORIES, DimMismatch,
                             EmbeddingError, FeatureConfig, FeatureExtractor,
                             RegexRule, RegexRuleSet, TagEncoder,
                             UnparseableValue, build_extractor, case_category,
                             embedding_table, first_seen, load_embeddings,
                             load_regex_rules, oov_bound, random_table)


def _sentence(surfaces, pos="N", chunk="B-NP"):
    return Sentence([Token(s, pos, chunk, "O") for s in surfaces])


def test_oov_bound_dim_300_is_exactly_one_tenth():
    assert oov_bound(300) == 0.1
    assert oov_bound(3) == 1.0


def test_load_embeddings_basic():
    table = load_embeddings(io.StringIO("hà_nội 0.1 0.2 0.3\n"), 3)
    assert np.array_equal(table.lookup("hà_nội"), [0.1, 0.2, 0.3])


def test_load_embeddings_header():
    table = load_embeddings(io.StringIO("2 3\na 1 2 3\nb 4 5 6\n"), 3)
    assert len(table) == 2


def test_load_embeddings_dim_mismatch_reports_line():
    with pytest.raises(DimMismatch, match="line 2"):
        load_embeddings(io.StringIO("a 1 2 3\nb 1 2\n"), 3)


def test_load_embeddings_unparseable_value():
    with pytest.raises(UnparseableValue, match="line 1"):
        load_embeddings(io.StringIO("a 1 x 3\n"), 3)


def test_load_embeddings_later_duplicate_wins():
    table = load_embeddings(io.StringIO("a 1 1 1\na 2 2 2\n"), 3)
    assert np.array_equal(table.lookup("a"), [2.0, 2.0, 2.0])


def test_lookup_unknown_word_is_cached_and_bounded():
    table = load_embeddings(io.StringIO("a 1 1 1\n"), 3, seed=5)
    v1 = table.lookup("mystery")
    v2 = table.lookup("mystery")
    assert v1 is v2
    assert np.all(np.abs(v1) <= oov_bound(3))


def test_lookup_oov_at_dim_300_stays_in_tenth_band():
    table = random_table(300, seed=1)
    assert np.all(np.abs(table.lookup("anything")) <= 0.1)


def test_lookup_lowercase_fallback():
    table = load_embeddings(io.StringIO("paris 1 2 3\nLondon 4 5 6\n"), 3)
    assert np.array_equal(table.lookup("Paris"), [1.0, 2.0, 3.0])
    # cased form present: do not lowercase
    assert np.array_equal(table.lookup("London"), [4.0, 5.0, 6.0])


def test_pretrained_oov_draws_do_not_depend_on_lookup_order():
    def table():
        return load_embeddings(io.StringIO("xyz 1 2 3\n"), 3, seed=5)

    seen = table()
    lower = seen.lookup("abc")
    # the fallback reads the file's vectors only, not the draw for "abc"
    cased = seen.lookup("Abc")
    assert np.array_equal(cased, table().lookup("Abc"))
    assert not np.array_equal(cased, lower)
    assert len(seen) == 3  # one vector read, two drawn


def test_lookup_order_independent():
    t1 = random_table(8, seed=3)
    t2 = random_table(8, seed=3)
    a1 = t1.lookup("a").copy()
    t2.lookup("zzz")
    a2 = t2.lookup("a")
    assert np.array_equal(a1, a2)


def test_onehot_table_shape_and_unk():
    table = embedding_table("onehot", 0, 0, vocab=["a", "b", "c"])
    assert table.dim == 4
    assert [table.onehot_index(w) for w in ("b", "a", "c", "zzz")] == [1, 0, 2, 3]
    # its words are slots, which assemble sets, not vectors
    with pytest.raises(EmbeddingError, match="one-hot"):
        table.lookup("a")


def test_word_vocab_first_seen_order():
    sents = [_sentence(["b", "a"]), _sentence(["a", "c"])]
    assert first_seen(sents, "surface") == ["b", "a", "c"]


@pytest.mark.parametrize("surface,category", [
    ("IBM", "AllCaps"),
    ("Hà_Nội", "InitCap"),
    ("Paris", "InitCap"),
    ("123", "NoLetter"),
    ("...", "NoLetter"),
    ("đẹp", "Lower"),
    ("hà_nội", "Lower"),
    ("iPhone", "Mixed"),
    ("A", "AllCaps"),
    ("VN-Index", "Mixed"),
])
def test_case_feature_categories(surface, category):
    v = case_feature(surface)
    assert v.sum() == 1.0
    assert v[CASE_CATEGORIES.index(category)] == 1.0


def test_case_feature_rejects_empty():
    with pytest.raises(ValueError):
        case_category("")


def test_load_regex_rules_format():
    text = "# comment\nORG\tprev1\tcông_ty\nNUM\tself\t[0-9]+\n"
    rules = load_regex_rules(io.StringIO(text))
    assert [r.name for r in rules.rules] == ["ORG", "NUM"]
    assert rules.width == 2


def test_load_regex_rules_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        load_regex_rules(io.StringIO("ONLY_TWO\tself\n"))
    with pytest.raises(ValueError, match="NOPAT"):
        load_regex_rules(io.StringIO("NOPAT\tself\t[unclosed\n"))
    with pytest.raises(ValueError,
                       match="^regex rule line 2: rule 'A': unknown scope 'prev9'$"):
        load_regex_rules(io.StringIO("# scope\nA\tprev9\tx\n"))
    with pytest.raises(ValueError,
                       match="^regex rule line 3: rule 'A': duplicate rule name$"):
        load_regex_rules(io.StringIO("A\tself\tx\n\nA\tprev1\ty\n"))


def test_regex_rule_set_validation():
    with pytest.raises(ValueError, match="duplicate"):
        RegexRuleSet([RegexRule("A", "self", "x"), RegexRule("A", "self", "y")])
    with pytest.raises(ValueError, match="scope"):
        RegexRuleSet([RegexRule("A", "prev9", "x")])


def test_regex_features_org_keyword_fires_on_next_token():
    rules = RegexRuleSet([RegexRule("ORG_PREFIX", "prev1",
                                    "(?:công_ty|tập_đoàn)")])
    sent = _sentence(["công_ty", "Vinamilk", "tăng"])
    out = regex_features(sent, rules)
    assert out.shape == (3, 1)
    assert out[1, 0] == 1.0
    assert out[0, 0] == 0.0 and out[2, 0] == 0.0


def test_regex_features_prev2_and_self():
    rules = RegexRuleSet([RegexRule("KW2", "prev2", "tỉnh"),
                          RegexRule("NUM", "self", "[0-9]+")])
    sent = _sentence(["tỉnh", "Hà", "Giang", "2016"])
    out = regex_features(sent, rules)
    assert out[2, 0] == 1.0  # two after the keyword
    assert out[3, 1] == 1.0
    assert out[0, 1] == 0.0


def test_regex_features_empty_rule_set():
    out = regex_features(_sentence(["a", "b"]), RegexRuleSet([]))
    assert out.shape == (2, 0)


def test_regex_features_no_match_all_zeros():
    rules = RegexRuleSet([RegexRule("X", "self", "zzz")])
    out = regex_features(_sentence(["a", "b"]), rules)
    assert np.all(out == 0.0)


def test_default_rule_file_loads_and_fires():
    from seqtag.cli import default_regex_file
    rules = load_regex_rules(default_regex_file())
    assert rules.width >= 4
    sent = _sentence(["công_ty", "Vinamilk"])
    out = regex_features(sent, rules)
    names = [r.name for r in rules.rules]
    idx = names.index("ORG_KW_PREV1")
    assert out[1, idx] == 1.0
    cap = names.index("CAP_TOKEN")
    assert out[1, cap] == 1.0
    assert out[0, cap] == 0.0


def test_encode_tagset_width_and_unk():
    enc = TagEncoder(["N", "V", "A"])
    assert enc.width == 4
    assert encode(enc, "N")[0] == 1.0
    assert encode(enc, "X")[enc.width - 1] == 1.0


def test_tag_ids_offset_and_unk():
    enc = TagEncoder(["N", "V", "A"])
    assert enc.tag_ids(["N", "X", "A"], offset=3) == [3, 3 + enc.width - 1, 5]


def test_encode_tagset_first_seen_determinism():
    e1 = TagEncoder(["V", "N", "V", "A"])
    e2 = TagEncoder(["V", "N", "A"])
    assert e1.tags() == e2.tags() == ["V", "N", "A"]


def test_assemble_word_only_width():
    table = random_table(300, seed=0)
    sent = _sentence(["a", "b"])
    out = FeatureExtractor(FeatureConfig(("word",)), table).assemble(sent)
    assert out.shape == (2, 300)


def test_assemble_word_pos_width_sums():
    table = random_table(10, seed=0)
    enc = TagEncoder([f"T{i}" for i in range(19)])  # width 20
    sent = _sentence(["a", "b"])
    out = FeatureExtractor(FeatureConfig(("word", "pos")), table,
                           pos_encoder=enc).assemble(sent)
    assert out.shape == (2, 30)


def test_assemble_feature_independence():
    table = random_table(6, seed=0)
    pos_enc = TagEncoder(["N", "V"])
    chunk_enc = TagEncoder(["B-NP"])
    sent = _sentence(["x", "y"])
    word_only = FeatureExtractor(FeatureConfig(("word",)), table).assemble(sent)
    full = FeatureExtractor(FeatureConfig(("word", "pos", "chunk")), table,
                            pos_enc, chunk_enc).assemble(sent)
    # the word block is unchanged by enabling more features
    assert np.array_equal(full[:, :6], word_only)


def test_assemble_constant_width_across_tokens():
    table = random_table(4, seed=2)
    rules = RegexRuleSet([RegexRule("N", "self", "[0-9]+")])
    sent = _sentence(["a", "1", "bb", "22"])
    cfg = FeatureConfig(("word", "case", "regex"))
    out = FeatureExtractor(cfg, table, rules=rules).assemble(sent)
    assert out.shape == (4, 4 + 5 + 1)


def test_feature_config_normalizes():
    cfg = FeatureConfig(("pos", "word"))
    assert cfg.enabled == ("word", "pos")
    cfg2 = FeatureConfig(("chunk",))
    assert "word" in cfg2.enabled
    with pytest.raises(ValueError):
        FeatureConfig(("word", "sparkles"))


# ---- per-type gather assembly against the per-token reference ----

OPTIONAL_FEATURES = ALL_FEATURES[1:]
FEATURE_SUBSETS = [("word",) + c for n in range(len(OPTIONAL_FEATURES) + 1)
                   for c in itertools.combinations(OPTIONAL_FEATURES, n)]
TABLES = ["random", "onehot", "pretrained"]


def _table(kind, sentences):
    """A fresh table of one kind over the vocabulary of `sentences`. The
    pretrained vectors cover some surfaces exactly and others only in
    lower case, so lookups take each step of the fallback chain."""
    if kind in ("random", "onehot"):
        return embedding_table(kind, 5, 11, vocab=first_seen(sentences, "surface"))
    lines = []
    for i, word in enumerate(first_seen(sentences, "surface")):
        if i % 3 == 2:
            continue  # left to the OOV draw
        key = word.lower() if i % 3 == 1 else word
        lines.append(" ".join([key] + [str((i * 7 + d) % 13 / 10) for d in range(5)]))
    return load_embeddings(io.StringIO("\n".join(lines) + "\n"), 5, seed=11)


def _pair(kind, train_sentences, enabled, rules):
    """Two extractors of the same pipeline, each on its own table, so the
    reference draws its OOV vectors independently of the gather path."""
    return [build_extractor(train_sentences, FeatureConfig(enabled),
                            _table(kind, train_sentences), rules)
            for _ in range(2)]


def _default_rules():
    return load_regex_rules(cli.default_regex_file())


@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("enabled", FEATURE_SUBSETS, ids="+".join)
def test_assemble_matches_reference_on_toy(toy_sentences, enabled, kind):
    # fitted on the first 30 sentences, so later ones meet unseen words
    # and tags; two passes, so the second one gathers cached types
    fast, slow = _pair(kind, toy_sentences[:30], enabled, _default_rules())
    for sent in toy_sentences + toy_sentences:
        assert np.array_equal(fast.assemble(sent),
                              assemble_reference(slow, sent))


@pytest.mark.parametrize("surfaces", [["tỉnh"], ["công_ty", "Vinamilk"],
                                      ["tỉnh", "Hà", "Giang"]])
def test_assemble_short_sentences_under_prev2_rules(surfaces):
    rules = RegexRuleSet([RegexRule("KW2", "prev2", "(?:tỉnh|công_ty)"),
                          RegexRule("KW1", "prev1", "(?:tỉnh|công_ty)"),
                          RegexRule("CAP", "self", "[A-ZĐH].*")])
    sent = _sentence(surfaces)
    fast, slow = _pair("random", [sent], ALL_FEATURES, rules)
    out = fast.assemble(sent)
    assert np.array_equal(out, assemble_reference(slow, sent))
    assert out[:, -3].sum() == (len(surfaces) > 2)


def test_assemble_with_an_empty_rule_set():
    sent = _sentence(["a", "1", "Bb"])
    fast, slow = _pair("random", [sent], ALL_FEATURES, RegexRuleSet([]))
    assert fast.input_dim == 5 + 2 + 2 + len(CASE_CATEGORIES)
    assert np.array_equal(fast.assemble(sent), assemble_reference(slow, sent))


@pytest.mark.parametrize("kind", ["random", "onehot"])
def test_assemble_into_a_strided_batch_column(toy_sentences, kind):
    fast, slow = _pair(kind, toy_sentences, ALL_FEATURES, _default_rules())
    group = [s for s in toy_sentences if len(s) == len(toy_sentences[0])]
    batch = np.full((len(group[0]), len(group), fast.input_dim), np.nan)
    for b, sent in enumerate(group):
        fast.assemble(sent, out=batch[:, b])
    for b, sent in enumerate(group):
        assert np.array_equal(batch[:, b], assemble_reference(slow, sent))


surface_chars = st.one_of(st.sampled_from("_0179đĐaAzZ.-/"),
                          st.characters(exclude_categories=("Cs",)))
surfaces = st.text(surface_chars, min_size=1, max_size=8)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(surfaces, st.sampled_from(["N", "V", "Np"]),
                          st.sampled_from(["B-NP", "I-NP", "O"])),
                min_size=1, max_size=7))
def test_assemble_matches_reference_on_random_surfaces(tokens):
    rules = RegexRuleSet([RegexRule("NUM", "self", "[0-9]+"),
                          RegexRule("D1", "prev1", "[đĐ].*"),
                          RegexRule("JOIN2", "prev2", ".*_.*"),
                          RegexRule("UP", "self", "[A-ZĐ][^_]*")])
    fitted = [Sentence([Token("x", "N", "B-NP"), Token("y", "V", "O")])]
    sent = Sentence([Token(s, p, c) for s, p, c in tokens])
    fast, slow = _pair("random", fitted, ALL_FEATURES, rules)
    assert np.array_equal(fast.assemble(sent), assemble_reference(slow, sent))


def test_cached_word_vectors_are_the_tables_own():
    sent = _sentence(["a", "b", "a"])
    extractor = build_extractor([sent], FeatureConfig(ALL_FEATURES),
                                random_table(4, seed=0))
    extractor.assemble(sent)
    for word in ("a", "b"):
        assert extractor._types[word][0] is extractor.table.drawn[word]


def test_second_pass_draws_nothing(toy_sentences):
    extractor = build_extractor(toy_sentences, FeatureConfig(ALL_FEATURES),
                                random_table(4, seed=0), _default_rules())
    first = [extractor.assemble(s) for s in toy_sentences]
    drawn = len(extractor.table)
    assert drawn == len(first_seen(toy_sentences, "surface"))
    second = [extractor.assemble(s) for s in toy_sentences]
    assert len(extractor.table) == drawn
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_assemble_rejects_an_empty_sentence():
    extractor = FeatureExtractor(FeatureConfig(("word",)), random_table(4, 0))
    with pytest.raises(ValueError):
        extractor.assemble(Sentence([]))
