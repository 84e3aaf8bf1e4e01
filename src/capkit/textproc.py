"""Tokenization, vocabulary, and n-gram extraction shared by metrics and model."""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

ROLE_DESCRIPTION = "description"
ROLE_AVOIDANCE = "avoidance"
ROLES = (ROLE_DESCRIPTION, ROLE_AVOIDANCE)

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def normalize(raw: str) -> list[str]:
    """Lowercase, map every non-[a-z0-9] char to space, collapse runs, split."""
    return _NON_ALNUM.sub(" ", raw.lower()).split()


@dataclass(frozen=True)
class Caption:
    raw: str
    tokens: tuple[str, ...]
    role: str

    @classmethod
    def make(cls, raw: str, role: str) -> "Caption":
        return cls(raw=raw, tokens=tuple(normalize(raw)), role=role)


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]


def build_vocab(corpus: list[Caption]) -> Vocab:
    """The reserved symbols, then every corpus token by falling count, ties in
    string order."""
    counts = Counter()
    for cap in corpus:
        counts.update(cap.tokens)
    return Vocab(tokens=RESERVED + tuple(sorted(counts, key=lambda t: (-counts[t], t))))


def encode(vocab: Vocab, tokens: list[str], max_len: int) -> tuple[int, ...]:
    """(BOS, t_1.., EOS), with the tokens truncated to fit max_len ids."""
    body = [vocab.id_of(t) for t in tokens[: max_len - 2]]
    return (BOS, *body, EOS)


def decode_ids(vocab: Vocab, ids: list[int]) -> list[str]:
    """Strip PAD/BOS/EOS and map the remaining ids back to token strings."""
    return [vocab.token_of(i) for i in ids if i not in (PAD, BOS, EOS)]


MAX_N = 4  # the n-gram orders every metric counts: 1..MAX_N


def ngrams(tokens) -> dict[int, Counter]:
    toks = tuple(tokens)
    return {n: Counter(zip(*(toks[i:] for i in range(n)))) for n in range(1, MAX_N + 1)}
