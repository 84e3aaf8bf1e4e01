from hypothesis import given, strategies as st

from capkit.textproc import (
    BOS,
    EOS,
    PAD,
    RESERVED,
    UNK,
    Caption,
    build_vocab,
    decode_ids,
    encode,
    ngrams,
    normalize,
)

tokens_st = st.lists(st.sampled_from(["a", "b", "car", "stops", "x1"]), max_size=12)


def test_normalize_basic():
    assert normalize("A car stops.") == ["a", "car", "stops"]


def test_normalize_empty():
    assert normalize("") == []


def test_normalize_hyphen():
    assert normalize("Ego-car drives too fast") == ["ego", "car", "drives", "too", "fast"]


@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    once = normalize(s)
    assert normalize(" ".join(once)) == once


@given(st.text(max_size=60))
def test_normalize_alphabet(s):
    for tok in normalize(s):
        assert tok
        assert all(c.islower() or c.isdigit() for c in tok)
        assert tok.isascii()


def _caps(texts):
    return [Caption.make(t, "description") for t in texts]


def test_build_vocab_empty():
    assert build_vocab([]).tokens == RESERVED


def test_build_vocab_tie_break():
    v = build_vocab(_caps(["b a", "a b"]))
    assert v.tokens[4:] == ("a", "b")


def test_build_vocab_count_order():
    v = build_vocab(_caps(["b b a"]))
    assert v.tokens[4:] == ("b", "a")


def test_vocab_lookup_inverse():
    v = build_vocab(_caps(["car stops here"]))
    for i in range(4, len(v)):
        assert v.id_of(v.token_of(i)) == i


def test_encode_basic():
    v = build_vocab(_caps(["a"]))
    assert encode(v, ["a"], 4) == (BOS, v.id_of("a"), EOS)


def test_encode_empty():
    v = build_vocab([])
    assert encode(v, [], 3) == (BOS, EOS)


def test_encode_unknown_token():
    v = build_vocab(_caps(["a"]))
    ids = encode(v, ["zzz"], 4)
    assert ids[1] == UNK


def test_encode_truncates():
    v = build_vocab(_caps(["a b c d"]))
    ids = encode(v, ["a", "b", "c", "d"], 4)
    assert len(ids) == 4 and ids[-1] == EOS


@given(tokens_st, st.integers(min_value=2, max_value=20))
def test_encode_round_trip(toks, max_len):
    v = build_vocab(_caps([" ".join(toks)]))
    ids = encode(v, toks, max_len)
    assert ids[0] == BOS and ids[-1] == EOS
    assert PAD not in ids and len(ids) <= max_len
    if len(toks) <= max_len - 2:
        assert decode_ids(v, ids) == toks


def test_ngrams_enumeration():
    g = ngrams(["a", "b", "a"])
    assert g[1] == {("a",): 2, ("b",): 1}
    assert g[2] == {("a", "b"): 1, ("b", "a"): 1}
    assert g[3] == {("a", "b", "a"): 1}
    assert g[4] == {}


def test_ngrams_empty():
    g = ngrams([])
    assert all(not g[n] for n in range(1, 5))


def test_ngrams_repeats():
    g = ngrams(["the", "the", "the"])
    assert g[1][("the",)] == 3
    assert g[2][("the", "the")] == 2


@given(tokens_st)
def test_ngram_totals(toks):
    g = ngrams(toks)
    for n in range(1, 5):
        assert sum(g[n].values()) == max(0, len(toks) - n + 1)


def test_caption_tokens_match_normalize():
    c = Caption.make("The CAR stops!", "description")
    assert list(c.tokens) == normalize(c.raw)
