"""Shared multilingual vocabulary with per-language start tokens.

One table serves every language. Ids 0, 1, 2 are pinned to the padding,
unknown, and end-of-sequence tokens; the language start tokens follow at
ids 3..3+L-1 in sorted language-code order; surface tokens come after,
ordered by descending frequency with ties broken lexicographically. Encoded
sequences never contain the padding id or a start id, and always end with
the end-of-sequence id.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"
PAD_ID = 0
UNK_ID = 1
EOS_ID = 2


def start_token(language: str) -> str:
    return f"<{language}>"


def check_language(code: str) -> None:
    """Raise ``ValueError`` unless ``code`` can name a language.

    A code is non-empty and holds no comma or whitespace (``--langs`` lists
    codes comma-separated), and its start token is not a control token, so
    ``pad``, ``unk`` and ``eos`` are refused.
    """
    if code.split() != [code] or "," in code:
        raise ValueError(f"lang {code!r} must be non-empty, without comma or whitespace")
    if start_token(code) in (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN):
        raise ValueError(f"lang {code!r} is reserved: its start token {start_token(code)} is a control token")


def check_tokens(tokens: Iterable[str]) -> None:
    """Raise ``ValueError`` unless every surface token is non-empty and holds
    no whitespace: captions are written space-joined and read back split on whitespace."""
    bad = [t for t in tokens if t.split() != [t]]
    if bad:
        raise ValueError(f"tokens must be non-empty and hold no whitespace, got {bad[0]!r}")


def check_collisions(tokens: Iterable[str], languages: Iterable[str]) -> None:
    """Raise ``ValueError`` if a surface token is spelled like a control token of a table over ``languages``."""
    clashes = sorted({PAD_TOKEN, UNK_TOKEN, EOS_TOKEN, *map(start_token, languages)}.intersection(tokens))
    if clashes:
        raise ValueError(f"surface tokens collide with control tokens: {clashes}")


class Vocabulary:
    """Bijective token/id table plus the language start-id map, held to the dataset's text rules."""

    def __init__(self, tokens: Sequence[str], languages: Sequence[str]):
        tokens = list(tokens)
        languages = list(languages)
        if not all(isinstance(x, str) for x in tokens + languages):
            raise ValueError("vocabulary tokens and languages must be strings")
        if languages != sorted(languages) or len(set(languages)) != len(languages):
            raise ValueError("languages must be unique and sorted")
        expected = [PAD_TOKEN, UNK_TOKEN, EOS_TOKEN] + [start_token(l) for l in languages]
        if tokens[: len(expected)] != expected:
            raise ValueError(f"vocabulary must begin with {expected}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        for language in languages:
            check_language(language)
        check_tokens(tokens[len(expected) :])
        "".join(tokens).encode("utf-8")  # a lone surrogate raises, as on a dataset line
        self.id_to_token: tuple[str, ...] = tuple(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        self.languages: tuple[str, ...] = tuple(languages)
        self.first_surface_id: int = len(expected)
        self._start_ids = {l: 3 + i for i, l in enumerate(languages)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def start_id(self, language: str) -> int:
        if language not in self._start_ids:
            raise ValueError(f"unknown language {language!r}; known: {list(self.languages)}")
        return self._start_ids[language]

    @property
    def start_ids(self) -> tuple[int, ...]:
        return tuple(self._start_ids[l] for l in self.languages)

    def encode(self, tokens: Iterable[str], language: str) -> tuple[int, ...]:
        """Map surface tokens to ids (unknowns to unk) and append eos.

        The language start id is not part of the encoded sequence; it is
        consumed by the decoder as conditioning input, never predicted.
        Control-token strings in the input are treated as unknown.
        """
        self.start_id(language)  # validates the code
        ids = []
        for tok in tokens:
            i = self.token_to_id.get(tok, UNK_ID)
            ids.append(i if i >= self.first_surface_id else UNK_ID)
        ids.append(EOS_ID)
        return tuple(ids)

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Ids back to surface tokens: stop at eos, drop pad and start ids."""
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise IndexError(f"token id {i} out of range for vocabulary of {len(self)}")
            if i == EOS_ID:
                break
            if i == PAD_ID or 3 <= i < self.first_surface_id:
                continue
            out.append(self.id_to_token[i])
        return out


def build_vocab(corpus: Iterable[tuple[str, Sequence[str]]], min_count: int) -> Vocabulary:
    """Build the shared table from (language, tokens) caption pairs.

    Surface tokens with corpus frequency below ``min_count`` are dropped
    (their occurrences encode as unk). A surface token that collides with a
    control-token string is an error.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    pairs = list(corpus)
    if not pairs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    languages = sorted({lang for lang, _ in pairs})
    counts: Counter[str] = Counter()
    for _, tokens in pairs:
        counts.update(tokens)
    check_collisions(counts, languages)
    surface = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    tokens = [PAD_TOKEN, UNK_TOKEN, EOS_TOKEN] + [start_token(l) for l in languages] + surface
    return Vocabulary(tokens, languages)
