from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_letters, random_prefix_valid
from varword.errors import CutPointMissing, IndexOutOfRange, NotOrdered, VarwordError
from varword.words import (
    Word,
    compose,
    decompose,
    dimension,
    format_word,
    is_prefix_valid,
    is_var_word,
    letter_words,
    parse_word,
    prefix_valid_words,
    recompose,
    substitute,
    validate,
    var_words,
)

K = 2
W_EXAMPLE = parse_word("01x0 10x1 01x0 001x2", K)


def sub(w, u, **kw):
    return format_word(substitute(w, parse_word(u, w.k) if isinstance(u, str) else u, **kw))


class TestSubstitutionExamples:
    def test_empty(self):
        assert sub(W_EXAMPLE, "-", omega=True) == "01"

    def test_zero(self):
        assert sub(W_EXAMPLE, "0", omega=True) == "01010"

    def test_zero_one(self):
        assert sub(W_EXAMPLE, "01", omega=True) == "010101010001"

    def test_one_zero(self):
        assert sub(W_EXAMPLE, "10", omega=True) == "011100011001"

    def test_identity_on_bare_variable(self):
        w = parse_word("x0", K)
        for a in range(K):
            assert substitute(w, (a,)) == Word(K, (a,))

    def test_cut_point_missing(self):
        with pytest.raises(CutPointMissing):
            substitute(W_EXAMPLE, parse_word("010", K), omega=True)

    def test_exact_dimension_needs_no_cut(self):
        w = parse_word("x0 0x1", K)
        assert sub(w, "10") == "100"
        with pytest.raises(CutPointMissing):
            substitute(w, parse_word("10", K), omega=True)

    def test_alphabet_mismatch(self):
        with pytest.raises(IndexOutOfRange):
            substitute(W_EXAMPLE, Word(3, (2,)))

    def test_letter_word_result_has_no_variables(self, rng):
        for _ in range(200):
            w = random_prefix_valid(rng, K, rng.randrange(1, 10))
            m = dimension(w)
            if m == 0:
                continue
            u = random_letters(rng, K, rng.randrange(m))
            try:
                out = substitute(w, u, omega=True)
            except CutPointMissing:
                continue
            assert not out.has_variables()


class TestValidity:
    def test_paper_prefix_passes(self):
        w = parse_word("01101x0 1010x1 10x0 101x2", K)
        assert validate(w, 3).passed
        assert is_prefix_valid(w)

    def test_first_order_violation(self):
        w = parse_word("010x1 0101x0", K)
        rep = validate(w, 2)
        assert not rep.passed
        bad = rep.failing()
        assert bad[0].name == "first-order" and bad[0].position == 3

    def test_empty_word_dimension_zero(self):
        assert validate(Word(K, ()), 0).passed

    def test_missing_variable(self):
        w = parse_word("00x0 11x2", K)
        rep = validate(w, 3)
        assert not rep.passed
        assert any(c.name == "occurrence" and not c.ok for c in rep.conditions)

    def test_ordered_condition(self):
        w = parse_word("x0x1x0", K)
        assert validate(w, 2).passed
        rep = validate(w, 2, ordered=True)
        assert not rep.passed
        assert rep.failing()[0].name == "ordered"
        assert rep.failing()[0].position == 2

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_is_var_word_matches_validate_exhaustively(self, k):
        # every word of length <= 6 over the k letters and x0..x3; the
        # ordered report holds the unordered conditions plus "ordered"
        for length in range(7):
            for syms in product(range(k + 4), repeat=length):
                w = Word(k, syms)
                for n in (None, 0, 1, 2, 3):
                    rep = validate(w, dimension(w) if n is None else n, ordered=True)
                    unordered = {c.name for c in rep.failing()} <= {"ordered"}
                    assert is_var_word(w, n) == unordered
                    assert is_var_word(w, n, ordered=True) == rep.passed


class TestDecompose:
    def test_example(self):
        sigma, blocks = decompose(parse_word("10x0 01x0 10", K))
        assert format_word(sigma) == "10"
        assert [format_word(b) for b in blocks] == ["x0[0]1x0[1]0"]

    def test_bare_variable(self):
        sigma, blocks = decompose(parse_word("x0", K))
        assert len(sigma) == 0 and [format_word(b) for b in blocks] == ["x0"]

    def test_not_ordered(self):
        with pytest.raises(NotOrdered):
            decompose(parse_word("x0x1x0", K))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_roundtrip_exhaustive(self, k):
        for w in var_words(k, 6, ordered=True):
            sigma, blocks = decompose(w)
            assert recompose(sigma, blocks) == w

    def test_recompose_alphabet_mismatch(self):
        # a block over k=3 used to be read as x1[0] over k=2
        with pytest.raises(IndexOutOfRange, match="alphabet mismatch"):
            recompose(Word(2, ()), [Word(3, (3, 0))])
        with pytest.raises(IndexOutOfRange, match="alphabet mismatch"):
            recompose(Word(2, (1,)), [Word(2, (2,)), Word(1, (1,))])


class TestCompose:
    def test_identity_prefix_extends(self):
        w = parse_word("0x0 1x1", K)
        ident = parse_word("x0x1x2", K)
        assert compose(w, ident) == w

    def test_left_identity(self):
        v = parse_word("01x0 1x1", K)
        w = parse_word("x0x1x2x3x4x5", K)
        assert compose(w, v) == v

    def test_truncates(self):
        w = parse_word("x0x1x2", K)
        v = parse_word("01", K)
        assert format_word(compose(w, v)) == "01"

    def test_preserves_prefix_validity(self, rng):
        for _ in range(500):
            w = random_prefix_valid(rng, K, rng.randrange(12))
            v = random_prefix_valid(rng, K, rng.randrange(12))
            assert is_prefix_valid(compose(w, v))


def both_sides(w, v, u):
    try:
        lhs = substitute(w, substitute(v, u, omega=True), omega=True)
    except CutPointMissing:
        lhs = None
    try:
        rhs = substitute(compose(w, v), u, omega=True)
    except CutPointMissing:
        rhs = None
    return lhs, rhs


class TestAssociativity:
    def test_exhaustive_small(self):
        words = list(prefix_valid_words(K, 4))
        checked = 0
        for w in words:
            for v in words:
                for m in range(5):
                    for u in letter_words(K, m, min_len=m):
                        lhs, rhs = both_sides(w, v, u)
                        assert (lhs is None) == (rhs is None)
                        if lhs is not None:
                            assert lhs == rhs
                            checked += 1
        assert checked > 1000

    def test_random_long(self, rng):
        checked = 0
        for _ in range(2000):
            w = random_prefix_valid(rng, K, rng.randrange(13))
            v = random_prefix_valid(rng, K, rng.randrange(13))
            u = random_letters(rng, K, rng.randrange(7))
            lhs, rhs = both_sides(w, v, u)
            assert (lhs is None) == (rhs is None)
            if lhs is not None:
                assert lhs == rhs
                checked += 1
        assert checked > 100


class TestDimensionPreservation:
    def test_variable_substitution_keeps_dimension(self, rng):
        for _ in range(400):
            w = random_prefix_valid(rng, K, rng.randrange(2, 12))
            m = rng.randrange(3)
            u = None
            for cand in var_words(K, 4, dim=m):
                if rng.random() < 0.2:
                    u = cand
                    break
            if u is None:
                continue
            try:
                out = substitute(w, u, omega=True)
            except CutPointMissing:
                continue
            if len(out) == 0:
                continue
            assert is_var_word(out, m), (format_word(w), format_word(u), format_word(out))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 6), max_size=12))
def test_parse_format_roundtrip(k, raw):
    w = Word(k, tuple(s for s in raw))
    assert parse_word(format_word(w), k) == w


@pytest.mark.parametrize("text", ["[8_3]", "[1_0]", "[ 1]", "[\u0663]", "\u0663", "x\u0663", "\u00b2", "x\u00b2", "[]"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(VarwordError):
        parse_word(text, 100)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789x[]-_ +\u00b2\u0663"), st.integers(0, 11))
def test_parse_raises_or_roundtrips(text, k):
    try:
        w = parse_word(text, k)
    except VarwordError:
        return
    assert parse_word(format_word(w), k) == w


def prefix_valid_strategy(k=K, max_len=12):
    """Draw a prefix-valid word as a sequence of choice indices."""

    def build(choices):
        syms = []
        introduced = 0
        for c in choices:
            pick = c % (k + introduced + 1)
            if pick < k:
                syms.append(pick)
            else:
                j = pick - k
                if j == introduced:
                    introduced += 1
                syms.append(k + j)
        return Word(k, tuple(syms))

    return st.lists(st.integers(0, 63), max_size=max_len).map(build)


@settings(max_examples=300, deadline=None)
@given(prefix_valid_strategy(), prefix_valid_strategy(), st.lists(st.integers(0, K - 1), max_size=6))
def test_associativity_property(w, v, raw_u):
    u = Word(K, tuple(raw_u))
    lhs, rhs = both_sides(w, v, u)
    assert (lhs is None) == (rhs is None)
    if lhs is not None:
        assert lhs == rhs


@settings(max_examples=300, deadline=None)
@given(prefix_valid_strategy(), prefix_valid_strategy())
def test_compose_property(w, v):
    z = compose(w, v)
    assert is_prefix_valid(z)
    assert len(z) <= len(w)


def ordered_word_strategy(k=K, max_len=10):
    def build(choices):
        syms = []
        introduced = 0
        for c in choices:
            pick = c % (k + (2 if introduced else 1))
            if pick < k:
                syms.append(pick)
            elif pick == k:
                syms.append(k + introduced)
                introduced += 1
            else:
                syms.append(k + introduced - 1)
        return Word(k, tuple(syms))

    return st.lists(st.integers(0, 63), max_size=max_len).map(build)


@settings(max_examples=300, deadline=None)
@given(ordered_word_strategy())
def test_decompose_roundtrip_property(w):
    sigma, blocks = decompose(w)
    assert recompose(sigma, blocks) == w
    for b in blocks:
        assert b.symbols[0] == b.k


def test_enumeration_counts():
    # ordered generators over two letters: 2^L + 2^(L-1) (2^L - 1) per length
    for L in range(7):
        got = sum(1 for w in var_words(2, L, ordered=True, min_len=L))
        want = 2**L + (2 ** (L - 1)) * (2**L - 1) if L else 1
        assert got == want
    assert sum(1 for _ in prefix_valid_words(2, 6)) == 4139


def test_enumeration_order_is_length_lex():
    seen = list(var_words(2, 3, dim=1, ordered=True))
    keys = [w.key() for w in seen]
    assert keys == sorted(keys)
    assert [format_word(w) for w in seen[:3]] == ["x0", "0x0", "1x0"]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_enumerations_match_filtered_reference(k):
    # every word of length <= 6 over the k letters and x0..x5, filtered
    # by definition, against the pruned walks
    naive = {
        length: [
            (syms, dimension(Word(k, syms)), is_var_word(Word(k, syms), ordered=True))
            for syms in product(range(k + length), repeat=length)
            if is_prefix_valid(Word(k, syms))
        ]
        for length in range(7)
    }
    cache = {}

    def check(call, name, keep, lengths):
        want = []
        for length in lengths:
            if (length, name) not in cache:
                cache[length, name] = [s for s, d, o in naive[length] if keep(d, o)]
            want += cache[length, name]
        assert [w.symbols for w in call()] == want, (name, lengths)

    for max_len in range(7):
        for min_len in range(max_len + 2):
            lengths = range(min_len, max_len + 1)
            for ordered in (False, True):
                # length 0 with dim >= 1 stays empty; dim = max_len + 1 is empty throughout
                for dim in [None, *range(max_len + 2)]:
                    check(
                        lambda: var_words(k, max_len, dim=dim, ordered=ordered, min_len=min_len),
                        ("var", dim, ordered),
                        lambda d, o: (dim is None or d == dim) and (o or not ordered),
                        lengths,
                    )
            for min_vars in range(max_len + 2):
                check(
                    lambda: prefix_valid_words(k, max_len, min_vars=min_vars, min_len=min_len),
                    ("prefix", min_vars),
                    lambda d, o: d >= min_vars,
                    lengths,
                )
            check(lambda: letter_words(k, max_len, min_len=min_len), ("letters",), lambda d, o: d == 0, lengths)
