"""Metric tests: hand-counted cases and brute-force oracle equivalence."""

import math
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcap import metrics
from mlcap.metrics import NGRAM_ORDERS, CorpusEval, EvalItem, _dense, _group_sums, cider, evaluate_corpus
from oracles import group_fsums, naive_bleu, naive_cider, random_corpus, reference_score
from tinymodels import traced_peak


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


def sparse_corpus(rng, n_images):
    """Five one- or two-token references per image, drawn from a million
    words, so nearly every token, gram and sentence is distinct; half the
    candidates copy their first reference, the rest are fresh words."""
    word = lambda: f"w{int(rng.integers(10**6))}"
    items = []
    for _ in range(n_images):
        refs = [[word() for _ in range(int(rng.integers(1, 3)))] for _ in range(5)]
        cand = list(refs[0]) if rng.random() < 0.5 else [word() for _ in range(int(rng.integers(1, 3)))]
        items.append((cand, refs))
    return items


class TestWideKeys:
    """Packed keys past 2**31: a (sentence, gram) key reaches sentences x
    grams, and an order-2 gram key reaches the vocabulary squared. Under
    NumPy 2 (NEP 50) an int32 index array times a Python int stays int32 and
    wraps silently, so the table must form every key in int64."""

    @pytest.fixture(scope="class")
    def wide(self):
        corpus = corpus_of(sparse_corpus(np.random.default_rng(2031), 8000))
        sentences = sum(1 + len(item.references) for item in corpus.items)
        vocab = len({t for item in corpus.items for s in (item.candidate, *item.references) for t in s})
        assert sentences * vocab > 2**31 and vocab**2 > 2**31
        return corpus, report_bits(reference_score(corpus))

    def test_equals_the_counter_reference(self, wide):
        corpus, expected = wide
        assert report_bits(evaluate_corpus(corpus)) == expected

    def test_np_unique_codes_give_the_same_report(self, wide, monkeypatch):
        # the fallback's codes and inverses, in np.unique's own dtype, feed the same table
        corpus, expected = wide
        monkeypatch.setattr(metrics, "_dense", lambda keys: np.unique(keys, return_inverse=True))
        assert report_bits(evaluate_corpus(corpus)) == expected


class TestDense:
    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1)), max_size=60))
    def test_equals_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        uniques, inverse = np.unique(keys, return_inverse=True)
        got_uniques, got_inverse = _dense(keys.copy())
        assert got_uniques.tolist() == uniques.tolist()
        assert got_inverse.tolist() == inverse.tolist()

    @pytest.mark.parametrize("largest, packed", [(2**57 - 1, True), (2**57, False)])
    def test_keys_without_room_for_the_positions_go_to_np_unique(self, largest, packed):
        # 40 positions take 6 bits, which leaves room for keys below 2**57
        keys = np.array([largest] + [(7 * i) % 39 for i in range(39)], dtype=np.int64)
        uniques, inverse = np.unique(keys, return_inverse=True)
        with mock.patch.object(metrics.np, "unique", wraps=np.unique) as unique:
            got_uniques, got_inverse = _dense(keys.copy())
        assert unique.called != packed
        assert got_uniques.tolist() == uniques.tolist()
        assert got_inverse.tolist() == inverse.tolist()


def zipf_corpus(rng, n_images):
    """Captions like paper-decode's: five 8-14 token references per image
    over a Zipf-weighted 400-word lexicon, and a candidate that copies a
    stretch of one reference and adds up to five words."""
    lexicon = [f"w{i}" for i in range(400)]
    cdf = np.cumsum(1.0 / np.arange(1, len(lexicon) + 1))
    cdf /= cdf[-1]
    sentence = lambda n: [lexicon[min(j, len(lexicon) - 1)] for j in np.searchsorted(cdf, rng.random(n))]
    items = []
    for _ in range(n_images):
        refs = [sentence(int(rng.integers(8, 15))) for _ in range(5)]
        base = refs[int(rng.integers(5))]
        keep = int(rng.integers(2, len(base) + 1))
        start = int(rng.integers(0, len(base) - keep + 1))
        items.append((base[start : start + keep] + sentence(int(rng.integers(0, 6))), refs))
    return items


def test_evaluate_holds_a_compact_working_set():
    # the traced peak is about 50 bytes per corpus token (48 on the 19k tokens
    # here, 51 on paper-decode's 128k): the index arrays in the narrowest
    # dtype that holds them, each per-order array freed after its last reader.
    # An int64 table whose arrays lived to the end of their order took 181.
    corpus = corpus_of(zipf_corpus(np.random.default_rng(9), 300))
    tokens = sum(len(item.candidate) + sum(map(len, item.references)) for item in corpus.items)
    evaluate_corpus(corpus)
    peak = traced_peak(lambda: evaluate_corpus(corpus))
    assert peak < 90 * tokens, peak / tokens


# values whose sums tie, cancel or underflow: equal idf-squared terms, halves of an ulp of 1,
# huge and tiny magnitudes, signed zeros and subnormals
SUMMANDS = (
    0.0, -0.0, 1.0, -1.0, 0.1, 2.0**-53, 3 * 2.0**-53, 2.0**53, -(2.0**53), 1e16,
    1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 3 * 5e-324,
    math.log(2000 / 3) ** 2, math.log(2000 / 7) ** 2, 1.7976931348623157e308, -1.7976931348623157e308,
    2.0**970, -3 * 2.0**970,  # a half and one and a half units in the last place of the largest float
)
FINITE = st.one_of(
    st.sampled_from(SUMMANDS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-306, max_value=1e-306),
)


@st.composite
def float_groups(draw):
    """Groups of 0-40 finite floats; half the time drawn from a pool of at most
    four values, so equal terms repeat and exact sums land on rounding midpoints."""
    values = st.sampled_from(draw(st.lists(FINITE, min_size=1, max_size=4))) if draw(st.booleans()) else FINITE
    return draw(st.lists(st.lists(values, max_size=40), max_size=8))


def sums_or_error(fn, groups):
    """Each group's sum as float hex, or the type of the error the sums raise."""
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    values = np.array([x for g in groups for x in g], dtype=np.float64)
    try:
        return [float(x).hex() for x in fn(values, sizes)]
    except (ValueError, OverflowError) as err:
        return type(err)


class TestGroupSums:
    """``_group_sums`` is ``math.fsum`` per group, bit for bit, including its errors."""

    @settings(max_examples=400, deadline=None)
    @given(groups=float_groups())
    @example(groups=[[-0.0], [], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0]])
    @example(groups=[[1e300, -1e300, 1e-300], [1e-300, 1e300, 1e-300, -1e300]])
    @example(groups=[[1.0, 2.0**-53], [1.0, 3 * 2.0**-53], [2.0**-53] * 40])
    @example(groups=[[5e-324] * 7, [-5e-324, 2.2250738585072014e-308]])
    def test_equals_fsum_per_group(self, groups):
        assert sums_or_error(_group_sums, groups) == sums_or_error(group_fsums, groups)

    @pytest.mark.parametrize(
        "group, expected",
        [([math.inf, 1.0], "inf"), ([-math.inf, 1.0], "-inf"), ([math.nan, 1.0], "nan")],
    )
    def test_non_finite_values_sum_as_fsum_does(self, group, expected):
        assert sums_or_error(_group_sums, [[2.0], group]) == ["0x1.0000000000000p+1", expected]

    @pytest.mark.parametrize(
        "group, error",
        [
            ([math.inf, -math.inf], ValueError),
            ([1e308, 1e308, -1e308], OverflowError),
            # math.fsum's partials overflow here, though no running TwoSum sum does
            ([1.7976931348623157e308, -3 * 2.0**970, -1.7976931348623157e308], OverflowError),
        ],
    )
    def test_fsum_errors_are_raised(self, group, error):
        with pytest.raises(error):
            math.fsum(group)
        assert sums_or_error(_group_sums, [[1.0], group]) is error

    def test_a_compensation_that_rounds_falls_back_to_fsum(self):
        group = [1.0, 2.0**-80, 2.0**-160, 1.0]
        with mock.patch.object(metrics.math, "fsum", wraps=math.fsum) as fsum:
            sums = _group_sums(np.array([3.0] + group), np.array([1, 4]))
        fsum.assert_called_once_with(group)
        assert sums.tolist() == [3.0, math.fsum(group)]

    def test_zero_sums_go_to_fsum_where_it_signs_them(self, monkeypatch):
        monkeypatch.setattr(metrics, "_FSUM_SIGNS_ZERO", True)
        with mock.patch.object(metrics.math, "fsum", wraps=math.fsum) as fsum:
            _group_sums(np.array([-0.0, 2.0, 1.0, -1.0]), np.array([1, 1, 2]))
        assert fsum.call_args_list == [mock.call([-0.0]), mock.call([1.0, -1.0])]

    def test_midpoint_ties_are_certified_without_fsum(self):
        groups = [[1.0, 2.0**-53], [1.0, 3 * 2.0**-53], [math.log(2000 / 3) ** 2] * 9, [2.0**-53] * 40]
        values = np.array([x for g in groups for x in g])
        with mock.patch.object(metrics.math, "fsum", wraps=math.fsum) as fsum:
            sums = _group_sums(values, np.array([len(g) for g in groups]))
        fsum.assert_not_called()
        assert sums.tolist() == group_fsums(values, [len(g) for g in groups])


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
