"""Metric tests: hand-counted cases and brute-force oracle equivalence."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcap.metrics import NGRAM_ORDERS, CorpusEval, EvalItem, cider, evaluate_corpus
from oracles import naive_bleu, naive_cider, random_corpus, reference_score


def corpus_of(pairs):
    return CorpusEval.from_pairs(pairs)


def bleu(corpus, n):
    """BLEU-n as ``evaluate_corpus`` reports it."""
    return getattr(evaluate_corpus(corpus), f"bleu{n}")


class TestBleuHandCases:
    def test_clipping_the_the_the(self):
        c = corpus_of([(["the", "the", "the"], [["the", "cat"]])])
        npt.assert_allclose(bleu(c, 1), 1.0 / 3.0, atol=1e-12)

    def test_perfect_match_scores_one(self):
        caption = ["a", "red", "circle", "sits", "here"]
        c = corpus_of([(caption, [caption]), (caption, [list(caption)])])
        for n in (1, 2, 3, 4):
            npt.assert_allclose(bleu(c, n), 1.0, atol=1e-12)

    def test_brevity_penalty_applies_when_short(self):
        c = corpus_of([(["the", "cat"], [["the", "cat", "sat", "on", "mat"]])])
        expect = np.exp(1.0 - 5.0 / 2.0) * 1.0  # unigram precision is 1
        npt.assert_allclose(bleu(c, 1), expect, atol=1e-12)

    def test_closest_reference_length_ties_prefer_shorter(self):
        # candidate len 3, refs len 2 and 4: both one away, r must be 2
        c = corpus_of([(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])])
        assert bleu(c, 1) == 1.0  # c=3 >= r=2, no penalty

    def test_any_zero_precision_zeroes_the_score(self):
        c = corpus_of([(["dog", "dog"], [["dog", "cat"]])])  # no bigram match
        report = evaluate_corpus(c)
        assert report.bleu1 > 0.0
        assert report.bleu2 == report.bleu3 == report.bleu4 == 0.0

    def test_empty_candidate_corpus_scores_zero(self):
        report = evaluate_corpus(corpus_of([([], [["the", "cat"]])]))
        assert report.bleu1 == report.bleu2 == report.bleu3 == report.bleu4 == 0.0

    def test_appending_identity_image_cannot_lower_bleu1(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            items = random_corpus(rng)
            base = corpus_of(items)
            extended = corpus_of(items + [(["mat", "cat"], [["mat", "cat"]])])
            if bleu(base, 1) > 0:  # identity keeps BP at 1 only if c >= r holds
                c_base = sum(len(cand) for cand, _ in items)
                r_base = sum(
                    min((len(r) for r in refs), key=lambda L: (abs(L - len(cand)), L))
                    for cand, refs in items
                )
                if c_base >= r_base:
                    assert bleu(extended, 1) >= bleu(base, 1) - 1e-12


class TestCiderHandCases:
    def test_two_disjoint_identities_score_one(self):
        a = ["a", "red", "circle", "here"]
        b = ["blue", "square", "there", "now"]
        c = corpus_of([(a, [a]), (b, [b])])
        npt.assert_allclose(cider(c), 1.0, atol=1e-12)

    def test_single_image_scores_zero(self):
        caption = ["a", "red", "circle", "here"]
        c = corpus_of([(caption, [caption])])
        assert cider(c) == 0.0

    def test_disjoint_candidate_scores_zero(self):
        c = corpus_of([(["x", "y"], [["a", "b"]]), (["z"], [["c", "d"]])])
        assert cider(c) == 0.0

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = corpus_of(random_corpus(rng))
            s = cider(c)
            assert 0.0 <= s <= 1.0 + 1e-12


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_bleu_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        items = random_corpus(rng)
        c = corpus_of(items)
        for n in (1, 2, 3, 4):
            npt.assert_allclose(bleu(c, n), naive_bleu(items, n), atol=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_cider_matches_bruteforce(self, seed):
        rng = np.random.default_rng(1000 + seed)
        items = random_corpus(rng)
        npt.assert_allclose(cider(corpus_of(items)), naive_cider(items), atol=1e-9)


# the shapes random_corpus draws: candidates of 0..7 words, 1..3 references of 1..7
WORDS = st.sampled_from(("the", "cat", "sat", "on", "mat", "dog", "ran"))
REFERENCES = st.lists(st.lists(WORDS, min_size=1, max_size=7), min_size=1, max_size=3)
ITEMS = st.lists(st.tuples(st.lists(WORDS, max_size=7), REFERENCES), min_size=1, max_size=6)


class TestOnePass:
    @settings(max_examples=200, deadline=None)
    @given(items=ITEMS)
    def test_every_report_field_matches_the_oracles(self, items):
        corpus = corpus_of(items)
        report = evaluate_corpus(corpus)
        for n in NGRAM_ORDERS:
            assert abs(getattr(report, f"bleu{n}") - naive_bleu(items, n)) <= 1e-9
        assert abs(report.cider - naive_cider(items)) <= 1e-9
        assert report.cider == cider(corpus)
        assert report.images == len(items)
        assert report.candidate_tokens == sum(len(cand) for cand, _ in items)


def report_bits(report):
    """Every report field, floats as their exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.as_dict().items()}


@st.composite
def scoring_corpora(draw):
    """Corpora with the edge cases of the count table: empty candidates,
    references shorter than every order, repeated sentences within an image,
    single images, and (with ``shared``) grams in every image's references,
    whose idf is zero."""
    shared = draw(st.lists(WORDS, min_size=1, max_size=3)) if draw(st.booleans()) else []
    items = []
    for _ in range(draw(st.integers(1, 5))):
        candidate = draw(st.lists(WORDS, max_size=7))
        references = draw(st.lists(st.lists(WORDS, max_size=7), min_size=1, max_size=3))
        if draw(st.booleans()):
            references.append(list(references[0]))
        if draw(st.booleans()):
            references.append(list(candidate))
        references[0] = shared + references[0]
        items.append((candidate, references))
    return items


class TestExactness:
    """The array table sums every group with ``math.fsum`` and takes one
    ``math.log`` per document frequency, so it matches the per-sentence
    ``Counter`` computation bit for bit, not just within a tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(items=scoring_corpora())
    @example(items=[([], [[]])])
    @example(items=[(["a"], [[], []]), ([], [["a"]])])
    @example(items=[(["a", "a", "a"], [["a", "a", "a"], ["a", "a", "a"]])])
    @example(items=[(["x", "y"], [["x", "y"]]), (["x", "y"], [["x", "y"]])])
    # no sentence reaches 2 tokens, so orders 2-4 have empty tables
    @example(items=[(["a"], [["b"], ["a"]]), (["c"], [["c"], []]), ([], [["a"]])])
    # candidate grams that no reference holds
    @example(items=[(["p", "q", "r", "s"], [["s", "t", "u"]]), (["s", "t", "u"], [["p", "q", "s", "t", "u"]])])
    # identical duplicate references
    @example(items=[(["a", "b", "a"], [["a", "b", "a", "b"], ["a", "b", "a", "b"]]), (["b"], [["b", "a"], ["b", "a"]])])
    def test_every_field_equals_the_counter_reference(self, items):
        corpus = corpus_of(items)
        report = evaluate_corpus(corpus)
        assert report_bits(report) == report_bits(reference_score(corpus))
        assert cider(corpus) == report.cider

    @pytest.mark.parametrize("seed", range(3))
    def test_large_corpora_equal_the_counter_reference(self, seed):
        rng = np.random.default_rng(500 + seed)
        words = tuple(f"w{i}" for i in range(40))
        corpus = corpus_of(random_corpus(rng, n_images=150, vocab=words))
        assert report_bits(evaluate_corpus(corpus)) == report_bits(reference_score(corpus))


class TestInvariances:
    def test_image_order_permutation_leaves_report_unchanged(self):
        rng = np.random.default_rng(77)
        items = random_corpus(rng, n_images=5)
        base = evaluate_corpus(corpus_of(items))
        for _ in range(5):
            perm = [items[i] for i in rng.permutation(len(items))]
            assert evaluate_corpus(corpus_of(perm)) == base

    def test_reference_shuffle_leaves_report_unchanged(self):
        rng = np.random.default_rng(78)
        items = random_corpus(rng, n_images=4)
        base = evaluate_corpus(corpus_of(items))
        shuffled = [
            (cand, [refs[i] for i in rng.permutation(len(refs))]) for cand, refs in items
        ]
        assert evaluate_corpus(corpus_of(shuffled)) == base


class TestConstruction:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CorpusEval(())

    def test_item_without_references_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            EvalItem(("a",), ())

    def test_report_dict_shape(self):
        report = evaluate_corpus(corpus_of([(["a", "b"], [["a", "b"]])]))
        d = report.as_dict()
        assert set(d) == {"bleu1", "bleu2", "bleu3", "bleu4", "cider", "images", "candidate_tokens"}
        assert d["images"] == 1 and d["candidate_tokens"] == 2
