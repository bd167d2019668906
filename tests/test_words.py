from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_letters, random_prefix_valid
from varword.errors import CutPointMissing, IndexOutOfRange, InvalidWord, NotOrdered, VarwordError
from varword.words import (
    Word,
    compose,
    decompose,
    dimension,
    first_occurrence,
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

    def test_cut_point_missing_text_is_written_on_first_read(self):
        # the raise carries the word and m; str() writes the message once
        with pytest.raises(CutPointMissing) as info:
            substitute(W_EXAMPLE, (0, 1, 0), omega=True)
        exc = info.value
        assert exc.args == (W_EXAMPLE, 3)
        want = "01x0[1]0x1[0]1x0[0]01x2 has no occurrence of x3 and is not a 3-variable word"
        assert str(exc) == want and str(exc) == want and exc.args == (want,)
        assert str(CutPointMissing("a written message")) == "a written message"

    def test_exact_dimension_needs_no_cut(self):
        w = parse_word("x0 0x1", K)
        assert sub(w, "10") == "100"
        with pytest.raises(CutPointMissing):
            substitute(w, parse_word("10", K), omega=True)

    def test_alphabet_mismatch(self):
        with pytest.raises(IndexOutOfRange):
            substitute(W_EXAMPLE, Word(3, (2,)))

    def test_negative_tuple_entry_is_refused(self):
        # a tuple's symbols were never checked, so the result is built by the checked Word(...)
        with pytest.raises(IndexOutOfRange, match="negative symbol -1 at position 1"):
            substitute(parse_word("0x0", K), (-1,))

    def test_word_and_tuple_routes_agree(self):
        def outcome(w, u, omega):
            try:
                out = substitute(w, u, omega=omega)
            except VarwordError as exc:
                return type(exc), str(exc)
            return type(out), out.k, out.symbols

        checked = 0
        for w in prefix_valid_words(K, 4):
            for u in letter_words(K, 3):
                for omega in (False, True):
                    assert outcome(w, u, omega) == outcome(w, u.symbols, omega)
                    checked += 1
        assert checked > 5000

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

    def test_validate_matches_reference_exhaustively(self):
        # every word of length <= 5 over 2 letters and x0..x3, and each n
        # up to |w| + 2, against the report that walked all n indices
        for length in range(6):
            for syms in product(range(K + 4), repeat=length):
                w = Word(K, syms)
                for n in range(length + 3):
                    for ordered in (False, True):
                        assert validate(w, n, ordered) == _validate_ref(w, n, ordered), (syms, n, ordered)

    def test_validate_refuses_a_negative_variable_count(self):
        with pytest.raises(IndexOutOfRange, match="^variable count must be >= 0, got -1$"):
            validate(Word(K, (1,)), -1)

    def test_validate_cost_does_not_grow_with_n(self, monkeypatch):
        # `word validate --w x0 --dim 100000000` ran past 15 s: one
        # first_occurrence call per index below n
        from varword import words

        calls = []

        def counted(w, j):
            calls.append(j)
            if len(calls) > 100:
                raise AssertionError("first_occurrence called per index")
            return first_occurrence(w, j)

        monkeypatch.setattr(words, "first_occurrence", counted)
        rep = validate(parse_word("x0", K), 10**9, ordered=True)
        assert [c.name for c in rep.failing()] == ["occurrence"]
        assert rep.failing()[0].detail == "x1 never occurs"
        assert len(calls) <= 100


def _validate_ref(w, n, ordered=False):
    """``validate`` as it was: one first_occurrence per index below n, and n + 1 flags."""
    from varword.words import Condition, ValidityReport

    conditions = []
    pos_range = next((i for i, s in enumerate(w.symbols) if s >= w.k + n), None)
    conditions.append(
        Condition(
            "index-range",
            pos_range is None,
            pos_range,
            "" if pos_range is None else f"variable x{w.symbols[pos_range] - w.k} with only {n} allowed",
        )
    )
    first = [first_occurrence(w, j) for j in range(n)]
    missing = next((j for j, p in enumerate(first) if p is None), None)
    conditions.append(
        Condition(
            "occurrence",
            missing is None,
            len(w.symbols) if missing is not None else None,
            "" if missing is None else f"x{missing} never occurs",
        )
    )
    order_pos = None
    for j in range(n - 1):
        a, b = first[j], first[j + 1]
        if a is not None and b is not None and b < a:
            order_pos = b
            break
    conditions.append(
        Condition(
            "first-order",
            order_pos is None,
            order_pos,
            "" if order_pos is None else "first occurrences out of index order",
        )
    )
    if ordered:
        bad = None
        seen_next = [False] * (n + 1)
        for i, s in enumerate(w.symbols):
            j = s - w.k
            if s < w.k or j >= n:
                continue
            if any(seen_next[j + 1 : n]):
                bad = i
                break
            seen_next[j] = True
        conditions.append(
            Condition(
                "ordered",
                bad is None,
                bad,
                "" if bad is None else f"x{w.symbols[bad] - w.k} reoccurs after a later variable",
            )
        )
    return ValidityReport(w, n, ordered, tuple(conditions))


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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_definition(self, k):
        # every prefix-valid word of length <= 6 against the definition,
        # written here with no code of varword's: block i is the slice
        # from the first x_i to the first x_{i+1}, x_i renamed to x_0; a
        # block holding any other variable means the word is not ordered
        def by_definition(t):
            firsts = [t.index(s) for s in sorted({s for s in t if s >= k})]
            cuts = firsts + [len(t)]
            blocks = []
            for i in range(len(firsts)):
                piece = t[cuts[i] : cuts[i + 1]]
                if {s for s in piece if s >= k} != {k + i}:
                    return None
                blocks.append(tuple(k if s == k + i else s for s in piece))
            return t[: cuts[0]], blocks

        def text(t):  # letters are single digits for k <= 3
            return "".join(f"x{s - k}" if s >= k else f"[{s}]" if i and t[i - 1] >= k else str(s)
                           for i, s in enumerate(t)) or "-"

        # a prefix-valid word extends by a letter, an introduced variable or the next one
        level = [((), 0)]
        unordered = 0
        for _ in range(7):
            for t, _n in level:
                want = by_definition(t)
                if want is None:
                    with pytest.raises(NotOrdered) as info:
                        decompose(Word(k, t))
                    assert str(info.value) == f"{text(t)} is not an ordered variable word"
                    unordered += 1
                    continue
                sigma, blocks = decompose(Word(k, t))
                assert (sigma.symbols, [b.symbols for b in blocks]) == want, text(t)
                assert recompose(sigma, blocks) == Word(k, t)
            level = [(t + (s,), n + (s == k + n)) for t, n in level for s in range(k + n + 1)]
        assert unordered > 100

    @pytest.mark.parametrize(
        "sigma, blocks, message",
        [
            ("0", ["-"], "block 0 (-) is not a left 1-variable word"),
            ("0", ["x0", "0x0"], "block 1 (0x0) is not a left 1-variable word"),
            ("-", ["x0x1"], "block 0 (x0x1) is not a left 1-variable word"),
            ("1", ["x0", "x0x0", "-"], "block 2 (-) is not a left 1-variable word"),
            ("-", ["0x0", "x0x1"], "block 0 (0x0) is not a left 1-variable word"),
            ("-", ["x0[1]", "1x0x1"], "block 1 (1x0x1) is not a left 1-variable word"),
        ],
        ids=["empty-block", "no-leading-x0", "holds-x1", "empty-third-block", "first-bad-block-named",
             "holds-x1-later"],
    )
    def test_recompose_refusals(self, sigma, blocks, message):
        with pytest.raises(InvalidWord) as info:
            recompose(parse_word(sigma, K), [parse_word(b, K) for b in blocks])
        assert str(info.value) == message

    def test_recompose_alphabet_mismatch(self):
        # a block over k=3 used to be read as x1[0] over k=2
        with pytest.raises(IndexOutOfRange, match="^alphabet mismatch in recomposition: block 0 is over k=3$"):
            recompose(Word(2, ()), [Word(3, (3, 0))])
        with pytest.raises(IndexOutOfRange, match="^alphabet mismatch in recomposition: block 1 is over k=1$"):
            recompose(Word(2, (1,)), [Word(2, (2,)), Word(1, (1,))])
        with pytest.raises(IndexOutOfRange, match="^alphabet mismatch in recomposition: block 2 is over k=3$"):
            recompose(Word(2, ()), [Word(2, (2,)), Word(2, (2, 0)), Word(3, (3,))])

    def test_builds_one_word_per_result(self, monkeypatch):
        # the work, not the time: every Word is allocated as a words._Draft
        from varword import words

        built = []
        draft = words._Draft

        def counting():
            built.append(1)
            return draft()

        monkeypatch.setattr(words, "_Draft", counting)
        assert Word(2, (0, 2)) == parse_word("0x0", 2) and len(built) == 2
        for k in (1, 2, 3):
            built.clear()
            ordered = list(var_words(k, 5, ordered=True))
            assert len(built) == len(ordered) > 0
            for w in ordered:
                built.clear()
                sigma, blocks = decompose(w)
                assert len(built) == len({s for s in w.symbols if s >= k}) + 1 == len(blocks) + 1
                built.clear()
                assert recompose(sigma, blocks) == w and len(built) == 1


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


@pytest.mark.parametrize("text, position", [("0x", 1), ("x1 x", 3), ("x[0]", 0)])
def test_parse_names_a_bare_x(text, position):
    with pytest.raises(IndexOutOfRange, match=f"^bare 'x' at position {position} in "):
        parse_word(text, 2)


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


@pytest.mark.parametrize("enumerate_words", [letter_words, var_words, prefix_valid_words])
def test_enumerations_refuse_negative_alphabet(enumerate_words):
    with pytest.raises(IndexOutOfRange, match="alphabet size must be >= 0, got -1"):
        list(enumerate_words(-1, 2))


@pytest.mark.parametrize("k, symbols", [(-1, ()), (2, (0, -1))])
def test_word_refuses_negative_codes(k, symbols):
    with pytest.raises(IndexOutOfRange):
        Word(k, symbols)


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


@pytest.mark.parametrize("k, ordered, lo, hi", [(1, False, 0, 3), (2, False, 1, 2), (2, True, 1, 1), (3, False, 0, 0)])
def test_walk_prunes_exactly_the_refused_subtrees(k, ordered, lo, hi):
    # the keep hook against the unpruned walk, filtered by every prefix
    from varword.words import _symbol_tuples

    def keep(syms, i):
        asked.append(tuple(syms[: i + 1]))
        return sum(syms[: i + 1]) % 3 != 2  # refuses some prefixes at every depth

    def kept(t):
        return all(sum(t[: i + 1]) % 3 != 2 for i in range(len(t)))

    for length in range(6):
        top = min(hi, length)
        full = list(_symbol_tuples(k, length, ordered, lo, top))
        asked = []
        pruned = list(_symbol_tuples(k, length, ordered, lo, top, keep))
        assert pruned == [t for t in full if kept(t)]
        # each prefix is asked at most once, and never below a refused one
        assert len(asked) == len(set(asked))
        assert all(kept(p[:-1]) for p in asked)
