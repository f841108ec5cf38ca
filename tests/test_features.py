import io

import numpy as np
import pytest

from seqtag.corpus import Sentence, Token
from seqtag.features import (CASE_CATEGORIES, DimMismatch, FeatureConfig,
                             FeatureExtractor, RegexRule, RegexRuleSet,
                             TagEncoder, UnparseableValue, case_feature,
                             embedding_table, first_seen, load_embeddings,
                             load_regex_rules, oov_bound, random_table,
                             regex_features)


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
    va = table.lookup("a")
    assert va.sum() == 1.0 and np.abs(va).sum() == 1.0
    vu = table.lookup("unseen")
    assert vu[table.dim - 1] == 1.0 and vu.sum() == 1.0
    # every vector exactly one nonzero
    for w in ("a", "b", "c", "zzz"):
        assert int(np.count_nonzero(table.lookup(w))) == 1


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
        case_feature("")


def test_load_regex_rules_format():
    text = "# comment\nORG\tprev1\tcông_ty\nNUM\tself\t[0-9]+\n"
    rules = load_regex_rules(io.StringIO(text))
    assert rules.rule_names() == ["ORG", "NUM"]
    assert rules.width == 2


def test_load_regex_rules_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        load_regex_rules(io.StringIO("ONLY_TWO\tself\n"))
    with pytest.raises(ValueError, match="NOPAT"):
        load_regex_rules(io.StringIO("NOPAT\tself\t[unclosed\n"))


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
    idx = rules.rule_names().index("ORG_KW_PREV1")
    assert out[1, idx] == 1.0
    cap = rules.rule_names().index("CAP_TOKEN")
    assert out[1, cap] == 1.0
    assert out[0, cap] == 0.0


def test_encode_tagset_width_and_unk():
    enc = TagEncoder(["N", "V", "A"])
    assert enc.width == 4
    assert enc.encode("N")[0] == 1.0
    assert enc.encode("X")[enc.unk_index] == 1.0


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
