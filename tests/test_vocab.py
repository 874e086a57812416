"""Vocabulary construction, encode/decode, and control-token layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcap.vocab import EOS_ID, PAD_ID, UNK_ID, Vocabulary, build_vocab


def bilingual_corpus():
    return [
        ("en", ["a", "red", "circle"]),
        ("en", ["a", "blue", "circle"]),
        ("jp", ["maru", "aka", "desu"]),
        ("jp", ["maru", "ao", "desu"]),
    ]


class TestBuildVocab:
    def test_layout_and_ordering(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        assert v.id_to_token[:3] == ("<pad>", "<unk>", "<eos>")
        assert v.id_to_token[3:5] == ("<en>", "<jp>")
        # frequency 2 first (lexicographic among ties), then frequency 1
        assert v.id_to_token[5:9] == ("a", "circle", "desu", "maru")
        assert v.id_to_token[9:] == ("aka", "ao", "blue", "red")

    def test_start_ids_sorted_by_language_code(self):
        v = build_vocab([("zz", ["x"]), ("aa", ["y"])], min_count=1)
        assert v.languages == ("aa", "zz")
        assert v.start_id("aa") == 3 and v.start_id("zz") == 4
        assert v.start_ids == (3, 4)

    def test_min_count_drops_rare_tokens(self):
        v = build_vocab([("en", ["x"]), ("jp", ["y"])], min_count=2)
        assert len(v) == 5  # specials + two start tokens, zero surface tokens
        assert v.first_surface_id == 5

    def test_min_count_must_be_positive(self):
        with pytest.raises(ValueError):
            build_vocab(bilingual_corpus(), min_count=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([], min_count=1)

    def test_control_token_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            build_vocab([("en", ["<eos>", "cat"])], min_count=1)
        with pytest.raises(ValueError, match="collide"):
            build_vocab([("en", ["<en>", "cat"])], min_count=1)

    def test_same_corpus_same_table(self):
        a = build_vocab(bilingual_corpus(), min_count=1)
        b = build_vocab(list(reversed(bilingual_corpus())), min_count=1)
        assert (a.id_to_token, a.languages) == (b.id_to_token, b.languages)


class TestEncodeDecode:
    def test_encode_appends_eos_and_maps_unknowns(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        ids = v.encode(["a", "purple", "circle"], "en")
        assert ids[-1] == EOS_ID
        assert ids[1] == UNK_ID
        assert PAD_ID not in ids
        assert v.start_id("en") not in ids

    def test_encode_decode_roundtrip_for_known_tokens(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        tokens = ["maru", "aka", "desu"]
        assert v.decode(v.encode(tokens, "jp")) == tokens

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_decode_inverts_encode_on_in_vocabulary_tokens(self, data):
        words = st.text(alphabet="abcxyz<>", min_size=1, max_size=4)
        corpus = data.draw(
            st.lists(st.tuples(st.sampled_from(["en", "jp"]), st.lists(words, max_size=5)), min_size=1, max_size=6)
        )
        try:
            v = build_vocab(corpus, min_count=data.draw(st.integers(1, 2)))
        except ValueError:  # a surface word spelled like a control token
            return
        surface = v.id_to_token[v.first_surface_id :]
        tokens = data.draw(st.lists(st.sampled_from(surface), max_size=8)) if surface else []
        assert v.decode(v.encode(tokens, data.draw(st.sampled_from(v.languages)))) == tokens

    def test_encode_unknown_language(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        with pytest.raises(ValueError, match="known"):
            v.encode(["a"], "fr")

    def test_control_strings_encode_as_unknown(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        ids = v.encode(["<pad>", "<en>", "a"], "en")
        assert ids[0] == UNK_ID and ids[1] == UNK_ID

    def test_decode_stops_at_eos_and_skips_control_ids(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        a = v.token_to_id["a"]
        red = v.token_to_id["red"]
        ids = [PAD_ID, v.start_id("en"), a, UNK_ID, red, EOS_ID, a]
        assert v.decode(ids) == ["a", "<unk>", "red"]

    def test_decode_rejects_out_of_range(self):
        v = build_vocab(bilingual_corpus(), min_count=1)
        with pytest.raises(IndexError):
            v.decode([len(v)])
        with pytest.raises(IndexError):
            v.decode([-1])


class TestVocabularyValidation:
    def test_requires_canonical_prefix(self):
        with pytest.raises(ValueError, match="begin with"):
            Vocabulary(["<pad>", "<eos>", "<unk>"], [])

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(["<pad>", "<unk>", "<eos>", "<en>", "cat", "cat"], ["en"])

    def test_rejects_unsorted_languages(self):
        with pytest.raises(ValueError, match="sorted"):
            Vocabulary(["<pad>", "<unk>", "<eos>", "<jp>", "<en>"], ["jp", "en"])

    @pytest.mark.parametrize(
        "tokens, languages, rule",
        [
            (["<pad>", "<unk>", "<eos>", "<e n>"], ["e n"], "lang 'e n' must be non-empty, without comma or whitespace"),
            (["<pad>", "<unk>", "<eos>", "<en>", "New York"], ["en"], "hold no whitespace, got 'New York'"),
            (["<pad>", "<unk>", "<eos>", "<en>", "circ\ud800le"], ["en"], "surrogates not allowed"),
        ],
        ids=["language", "surface-token", "lone-surrogate"],
    )
    def test_refuses_what_a_caption_line_cannot_carry(self, tokens, languages, rule):
        # captions are written from the table's tokens, one tab-separated UTF-8 line per image
        with pytest.raises(ValueError, match=rule):
            Vocabulary(tokens, languages)
