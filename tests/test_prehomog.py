import pytest

from varword import prehomog
from varword.certificates import check_csl
from varword.cli import main
from varword.colorings import Coloring
from varword.errors import CutPointMissing, InvalidWord, NotFoundWithinHorizon
from varword.prehomog import (
    csl_search,
    leq_m_check,
    one_step_prehomog,
    prehomog_check,
)
from varword.words import Word, compose, dimension, format_word, parse_word, prefix_valid_words, substitute

K = 2
IDENT = parse_word("x0x1x2x3x4x5x6x7", K)


class TestCsl:
    def test_constant(self):
        c = Coloring.constant(K, 4, 0, 2)
        cert = csl_search(c, 1)
        assert format_word(cert.word) == "x0x1"
        assert check_csl(c, cert.word, cert.color, cert.depth) == list(cert.checked)

    def test_first_letter_coloring(self):
        c = Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0)
        cert = csl_search(c, 1)
        assert cert.word.symbols[0] == 0  # starts with a fixed letter
        assert check_csl(c, cert.word, cert.color, cert.depth) == list(cert.checked)

    def test_unary_parity_pigeonhole(self):
        # with one letter and two colors some pair of cut positions agrees
        for bits in range(2**5):
            f = [(bits >> i) & 1 for i in range(5)]
            c = Coloring.from_function(1, 4, 0, 2, lambda w: f[len(w)])
            cert = csl_search(c, 1)
            assert check_csl(c, cert.word, cert.color, cert.depth) == list(cert.checked)

    def test_not_found(self):
        # three lengths, all distinctly colored, depth 2 demands three equal cuts
        c = Coloring.from_function(1, 2, 0, 3, lambda w: len(w))
        with pytest.raises(NotFoundWithinHorizon):
            csl_search(c, 2)

    def test_dimension_one_patterns(self):
        c = Coloring.constant(K, 6, 1, 2)
        cert = csl_search(c, 2)
        assert check_csl(c, cert.word, cert.color, cert.depth) == list(cert.checked)
        assert all(u.has_variables() for u, _ in cert.checked)


    @pytest.mark.parametrize(
        "coloring, depth",
        [
            (Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0), 1),
            (Coloring.from_function(K, 6, 1, 2, lambda w: len(w) % 2), 2),
        ],
        ids=["first-letter", "dimension-1"],
    )
    def test_one_substitution_per_candidate_pattern(self, monkeypatch, coloring, depth):
        # a count guard: check_csl decides each candidate, and the hit is not
        # walked a second time, which would substitute each of its patterns again
        from varword import certificates

        calls = []

        def counted(w, u, omega=False):
            calls.append((w, u))
            return substitute(w, u, omega=omega)

        monkeypatch.setattr(certificates, "substitute", counted)
        monkeypatch.setattr(prehomog, "substitute", counted)
        cert = csl_search(coloring, depth)
        hit = [(cert.word, u) for u, _ in cert.checked]
        assert len(calls) == len(set(calls)) > len(hit)
        assert calls[-len(hit):] == hit


class TestPrehomogCheck:
    def test_constant(self):
        f = Coloring.constant(K, 8, 1, 2)
        rep = prehomog_check(IDENT, f, 2, 2)
        assert rep.ok and rep.checked > 50

    def test_prefix_dependent_coloring(self):
        f = Coloring.from_function(K, 8, 1, 2, lambda t: 1 if t.symbols[0] == K else 0)
        assert prehomog_check(IDENT, f, 2, 2).ok

    def test_length_parity_fails(self):
        f = Coloring.from_function(K, 8, 1, 2, lambda t: len(t) % 2)
        rep = prehomog_check(IDENT, f, 2, 2)
        assert not rep.ok
        s, t0, t1 = rep.counterexample
        assert f(substitute(IDENT, t0, omega=True)) != f(
            substitute(IDENT, t1, omega=True)
        )

    def test_counterexample_is_lex_least_in_t1(self):
        f = Coloring.from_function(K, 8, 1, 2, lambda t: len(t) % 2)
        rep = prehomog_check(IDENT, f, 1, 1)
        s, t0, t1 = rep.counterexample
        assert len(s) == 0 and format_word(t0) == "x0"


class TestOneStep:
    def test_constant_coloring(self):
        f = Coloring.constant(K, 8, 1, 2)
        out = one_step_prehomog(IDENT, Word(K, ()), f, depth=1, verify_tail=2)
        assert out.color == 0
        assert compose(IDENT, out.z_word) == out.w_hat

    def test_tail_blind_coloring_immediate(self):
        # color depends only on the symbol at position 0, which the stem fixes
        f = Coloring.from_function(K, 8, 1, 2, lambda t: 1 if t.symbols[0] == K else 0)
        out = one_step_prehomog(IDENT, Word(K, ()), f, depth=1, verify_tail=2)
        assert out.color == 1  # every extension of x0 starts with the variable
        assert len(out.checked) > 1

    def test_nonconstant_derived_coloring(self):
        # color = symbol after the stem region; not prehomogeneous along
        # the identity, but freezable by fixing that position
        def by_second(t):
            if len(t) < 2:
                return 0
            return 2 if t.symbols[1] == K else t.symbols[1]

        f = Coloring.from_function(K, 8, 1, 3, by_second)
        rep = prehomog_check(IDENT, f, 0, 1)
        assert not rep.ok  # extensions of x0 really differ in color
        out = one_step_prehomog(IDENT, Word(K, ()), f, depth=1, verify_tail=2)
        assert format_word(out.w_hat) == "x0[0]x1x2"
        assert out.color == 0
        # the frozen prefix is now prehomogeneous at this stem within horizon
        rep2 = prehomog_check(out.w_hat, f, 0, 2)
        assert rep2.ok

    def test_nonempty_stem(self):
        f = Coloring.constant(K, 9, 1, 3)
        stem = parse_word("0", K)
        out = one_step_prehomog(IDENT, stem, f, depth=1, verify_tail=1)
        m = len(stem) + 1
        assert out.z_word.symbols[:m] == tuple(K + j for j in range(m))
        res = leq_m_check(out.w_hat, IDENT, m, max_len=5)
        assert res.ok

    def test_horizon_too_short(self):
        f = Coloring.constant(K, 8, 1, 2)
        with pytest.raises(CutPointMissing):
            one_step_prehomog(parse_word("x0x1", K), Word(K, ()), f, depth=1)

    def test_failed_recheck_is_an_error_not_a_traceback(self, monkeypatch, tmp_path, capsys):
        # an inner certificate of the wrong color must fail the re-check
        # with the checker's rejection, which the CLI reports as an error
        real = prehomog.csl_search

        def wrong_color(*args, **kwargs):
            cert = real(*args, **kwargs)
            return cert._replace(color=1 - cert.color)

        monkeypatch.setattr(prehomog, "csl_search", wrong_color)
        f = Coloring.constant(K, 8, 1, 2)
        with pytest.raises(InvalidWord):
            one_step_prehomog(IDENT, Word(K, ()), f, depth=1, verify_tail=2)
        col = tmp_path / "col1.txt"
        col.write_text(f.dump())
        code = main(["search", "prehomog", "--coloring", str(col), "--w", "x0x1x2x3x4x5x6x7"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err


class TestLeq:
    def test_reflexive(self):
        assert leq_m_check(IDENT, IDENT, 1, max_len=3).ok

    def test_recovers_witness(self):
        v = parse_word("x0[0]x1", K)
        what = compose(IDENT, v)
        res = leq_m_check(what, IDENT, 1, max_len=4)
        assert res.ok
        z = compose(IDENT, res.witness)
        overlap = min(len(z), len(what))
        assert z.symbols[:overlap] == what.symbols[:overlap]

    def test_unrelated_fails(self):
        w = parse_word("0x0[1]x1", K)
        what = parse_word("111111", K)
        assert not leq_m_check(what, w, 1, max_len=5).ok

    def test_pure_prefix_required(self):
        w = parse_word("x0x1x2x3", K)
        what = compose(w, parse_word("0x0x1", K))  # substitutes a letter at z0
        assert what.symbols[0] == 0
        assert not leq_m_check(what, w, 1, max_len=2).ok

    def test_transitive_on_constructed_chain(self):
        v1 = parse_word("x0[0]x1x2", K)
        v2 = parse_word("x0x1[1]x2", K)
        w1 = compose(IDENT, v1)
        w2 = compose(w1, v2)
        assert leq_m_check(w1, IDENT, 1, max_len=4).ok
        assert leq_m_check(w2, w1, 1, max_len=4).ok
        assert leq_m_check(w2, IDENT, 1, max_len=4).ok

    def test_stronger_implies_weaker(self):
        v = parse_word("x0x1[0]x2", K)
        what = compose(IDENT, v)
        assert leq_m_check(what, IDENT, 2, max_len=5).ok
        assert leq_m_check(what, IDENT, 1, max_len=5).ok

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_witness_is_the_first_match_of_the_full_walk(self, monkeypatch, m):
        # brute force: every prefix-valid word of length m..max_len (the bare
        # pure prefix when m > max_len) with z_0..z_{m-1} pure and at most
        # two variables past them, filtered in walk order; the search must
        # try exactly the words before its witness, or all of them
        max_len = 4
        w = parse_word("x00x1[1]x2x3", K)
        pure = tuple(K + j for j in range(m))
        space = [
            v
            for v in prefix_valid_words(K, max(max_len, m), min_len=m)
            if v.symbols[:m] == pure and dimension(v) <= m + 2
        ]
        tried = []
        monkeypatch.setattr(prehomog, "compose", lambda w, v: tried.append(v) or compose(w, v))
        for what in [*prefix_valid_words(K, 3), Word(K, (1,) * 9)]:
            want = next((v for v in space if _agree(compose(w, v), what)), None)
            tried.clear()
            assert leq_m_check(what, w, m, max_len) == (want is not None, want), format_word(what)
            assert tried == (space if want is None else space[: space.index(want) + 1])


def _agree(z, what):
    overlap = min(len(z), len(what))
    return z.symbols[:overlap] == what.symbols[:overlap]
