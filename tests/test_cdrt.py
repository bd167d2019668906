import pytest

from varword.cdrt import (
    decode_word,
    encode_word,
    pullback_certificate,
    pullback_word,
    translate,
)
from varword.certificates import coloring_from_json, coloring_to_json
from varword.colorings import Coloring
from varword.errors import InvalidWord, NotFoundWithinHorizon
from varword.prehomog import csl_search
from varword.words import Word, format_word, is_var_word, parse_word, var_words

K = 2


def checkerboard(w):
    return (len(w) + sum(1 for s in w.symbols if s >= K)) % 2


class TestEncodeDecode:
    def test_roundtrip_exhaustive(self):
        # the translation colors exactly the proper (K+1)-variable words
        c = Coloring.from_function(K, 4, 1, 2, checkerboard)
        chat = translate(c)
        count = colored = 0
        for u in var_words(K, 4, dim=1):
            uh = encode_word(u, 1)
            assert (uh in chat) == is_var_word(uh, K + 1)
            if uh in chat:
                assert chat(uh) == c(u)
                colored += 1
            assert decode_word(uh, K, 1) == u
            count += 1
        assert count == 90 and colored == len(chat.colors) == 7
        for uh in chat.domain():
            assert chat(uh) == c(decode_word(uh, K, 1))

    def test_unary_zero_dim(self):
        c = Coloring.from_function(1, 4, 0, 2, lambda w: len(w) % 2)
        chat = translate(c)
        for j in range(5):
            uh = Word(0, (0,) * j)
            assert format_word(decode_word(uh, 1, 0)) == format_word(Word(1, (0,) * j))
            # the empty word is no 1-variable word: it is outside the translation's domain
            assert (uh in chat) == (j >= 1)
            if j:
                assert chat(uh) == j % 2

    def test_encode_requires_valid_input(self):
        with pytest.raises(InvalidWord):
            encode_word(parse_word("x1x0", K), 2)

    def test_decode_rejects_excess_dimension(self):
        with pytest.raises(InvalidWord):
            decode_word(Word(0, (0, 1, 2, 3)), K, 1)

    def test_proper_patterns_always_decode(self):
        # (k+n)-variable words over the empty alphabet decode to valid
        # n-variable words, so the induced coloring is total on them
        c = Coloring.from_function(K, 4, 1, 2, checkerboard)
        chat = translate(c)
        for uh in var_words(0, 4, dim=3):
            assert uh in chat


class TestPullback:
    def test_constant(self):
        c = Coloring.constant(K, 5, 0, 2, 1)
        chat = translate(c)
        cert = csl_search(chat, K + 1, max_len=5)
        pb = pullback_certificate(cert, c, depth=1)
        assert pb.color == 1
        assert len(pb.checked) >= 2

    def test_reinterprets_symbols(self):
        w_hat = Word(0, (0, 1, 2, 0, 3))
        w = pullback_word(w_hat, K)
        assert format_word(w) == "01x0[0]x1"

    def test_every_found_certificate_reverifies(self):
        colorings = [
            Coloring.constant(K, 5, 0, 2, 0),
            Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0),
            Coloring.from_function(K, 5, 0, 2, lambda w: 1 if len(w) >= 1 else 0),
        ]
        found = 0
        for c in colorings:
            chat = translate(c)
            try:
                cert = csl_search(chat, K + 1, max_len=5)
            except NotFoundWithinHorizon:
                continue
            pb = pullback_certificate(cert, c, depth=1)
            for u, img in pb.checked:
                assert c(img) == pb.color
            found += 1
        assert found >= 2

    def test_dimension_one_instance(self):
        c = Coloring.constant(K, 6, 1, 3, 2)
        chat = translate(c)
        cert = csl_search(chat, K + 1 + 1, max_len=6)
        pb = pullback_certificate(cert, c, depth=2)
        assert pb.color == 2
        assert all(u.has_variables() for u, _ in pb.checked)


@pytest.mark.parametrize(
    "c",
    [
        Coloring.from_function(K, 4, 1, 2, checkerboard),
        Coloring.from_function(1, 4, 0, 2, lambda w: len(w) % 2),
        Coloring.constant(K, 5, 0, 2, 1),
        Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0),
        Coloring.from_function(K, 5, 0, 2, lambda w: 1 if len(w) >= 1 else 0),
        Coloring.constant(K, 6, 1, 3, 2),
    ],
    ids=["checkerboard", "unary", "constant", "first-letter", "nonempty", "dim-1"],
)
def test_translation_rereads(c):
    chat = translate(c)
    assert coloring_from_json(coloring_to_json(chat)) == chat
