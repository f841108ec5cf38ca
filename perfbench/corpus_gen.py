"""Seeded synthetic CoNLL corpus for the benchmark.

Sentences are 5-40 tokens long (the last token is a full stop). Plain words
come from a Zipfian vocabulary of lowercase pseudo-syllable words; about 15%
of tokens belong to PER/LOC/ORG/MISC entities whose names come from a
Zipfian vocabulary per type. A LOC or ORG entity is sometimes preceded by a
keyword ("tỉnh", "công_ty") so the default regex rules fire.

Every random choice is drawn in bulk by inverse CDF (uniforms fed to
`np.searchsorted` over a cumulative table): a per-token `rng.choice(p=...)`
costs seconds per thousand sentences and would dominate set-up time.

The POS tagset {N, Np, V, A, E, CH} and chunk tagset {B-NP, I-NP, O} give
the paper's input width of 322 with all features on: 300 word + 7 POS +
4 chunk + 5 case + 6 regex (each encoder adds one UNK slot).
"""

import numpy as np

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
MIN_LEN, MAX_LEN = 5, 40
MEAN_LEN = 22  # every corpus has exactly this many tokens per sentence on average
WORD_VOCAB = 30000
NAME_VOCAB = 6000  # per entity type
ZIPF_S = 1.05
# an entity starts at a free position with this probability; with a mean
# entity length of 2 it yields about 15% entity tokens
P_ENTITY = 0.092
P_KEYWORD = 0.3
PLAIN_POS = ("N", "V", "A", "E", "N", "V")
KEYWORDS = {"LOC": "tỉnh", "ORG": "công_ty"}

_ONSETS = ("b", "c", "d", "đ", "g", "h", "k", "l", "m", "n", "ng", "nh",
           "ph", "qu", "r", "s", "t", "th", "tr", "v", "x")
_RIMES = ("a", "ai", "an", "anh", "ao", "ăn", "âm", "e", "em", "ên", "i",
          "inh", "o", "oa", "ong", "ô", "ơi", "u", "uy", "ư", "ương", "yên")
_SYLLABLES = [o + r for o in _ONSETS for r in _RIMES]


def _pseudo_word(index, capitalize):
    """Distinct 1-3 syllable word for each index, syllables joined by "_"."""
    parts = []
    n = index
    while True:
        syl = _SYLLABLES[n % len(_SYLLABLES)]
        parts.append(syl.capitalize() if capitalize else syl)
        n //= len(_SYLLABLES)
        if n == 0:
            break
    return "_".join(parts)


def _zipf_cdf(n):
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


class CorpusGenerator:
    """Vocabularies and sampling tables, built once and reused for every
    corpus drawn from them."""

    def __init__(self):
        self.words = [_pseudo_word(i, False) for i in range(WORD_VOCAB)]
        # offset so names never collide with plain words
        self.names = {t: [_pseudo_word(WORD_VOCAB + k * NAME_VOCAB + i, True)
                          for i in range(NAME_VOCAB)]
                      for k, t in enumerate(ENTITY_TYPES)}
        self.word_pos = [PLAIN_POS[i % len(PLAIN_POS)] for i in range(WORD_VOCAB)]
        self.word_cdf = _zipf_cdf(WORD_VOCAB)
        self.name_cdf = _zipf_cdf(NAME_VOCAB)

    def lines(self, seed, stream, n_sentences):
        """CoNLL lines (surface POS chunk label) of `n_sentences` sentences
        and exactly `n_sentences * MEAN_LEN` tokens, a pure function of
        (seed, stream). The fixed token count gives every seed the same
        amount of work, so timings of different seeds compare."""
        rng = np.random.default_rng([int(seed), int(stream)])
        lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=n_sentences)
        diff = n_sentences * MEAN_LEN - int(lengths.sum())
        i = 0
        while diff:
            step = 1 if diff > 0 else -1
            j = i % n_sentences
            if MIN_LEN <= lengths[j] + step <= MAX_LEN:
                lengths[j] += step
                diff -= step
            i += 1
        total = int(lengths.sum())
        word_ids = np.searchsorted(self.word_cdf, rng.random(total), side="right")
        name_ids = np.searchsorted(self.name_cdf, rng.random(total), side="right")
        starts = rng.random(total) < P_ENTITY
        keyword = rng.random(total) < P_KEYWORD
        etypes = rng.integers(0, len(ENTITY_TYPES), size=total)
        elens = rng.integers(1, 4, size=total)

        out = []
        k = 0  # index into the per-token draws
        for length in lengths:
            body = int(length) - 1  # the full stop closes every sentence
            t = 0
            while t < body:
                etype = ENTITY_TYPES[etypes[k]]
                if starts[k]:
                    if etype in KEYWORDS and keyword[k] and body - t >= 2:
                        out.append(f"{KEYWORDS[etype]} N B-NP O\n")
                        t += 1
                    n = min(int(elens[k]), body - t)
                    for j in range(n):
                        name = self.names[etype][name_ids[(k + j) % total]]
                        prefix = "B" if j == 0 else "I"
                        out.append(f"{name} Np {prefix}-NP {prefix}-{etype}\n")
                    t += n
                else:
                    w = word_ids[k]
                    pos = self.word_pos[w]
                    out.append(f"{self.words[w]} {pos} "
                               f"{'B-NP' if pos == 'N' else 'O'} O\n")
                    t += 1
                k += 1
            out.append(". CH O O\n")
            out.append("\n")
        return out
