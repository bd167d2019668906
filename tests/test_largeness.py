import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import glued_inclusion_ref, is_thick_ref, random_letters
from varword.errors import HorizonExceeded, InputError, NoPartSelected, NotAPartition
from varword.largeness import (
    FiniteFamily,
    PwSyndeticDecomposition,
    brown_select,
    density,
    density_profile,
    density_split,
    glued_inclusion,
    is_syndetic,
    is_thick,
    prepend_reach,
    pw_split,
    pws_certify,
    random_piecewise_syndetic,
    thick_shrink,
)
from varword.words import MAX_UNIVERSE, Word, format_word, letter_words, parse_word

K, N = 2, 8


def family(pred, k=K, n=N):
    return FiniteFamily.from_words(k, n, [w for w in letter_words(k, n) if pred(w)])


def random_subfamily(rng, base):
    mask = 0
    m = base.mask
    r = 0
    while m:
        if m & 1 and rng.random() < 0.5:
            mask |= 1 << r
        m >>= 1
        r += 1
    return FiniteFamily(base.k, base.N, mask)


class TestFamily:
    def test_rank_roundtrip(self):
        fam = FiniteFamily.full(K, N)
        for r, w in enumerate(fam.words()):
            assert fam.rank(w) == r
        assert len(fam) == fam.universe_size == 2 ** (N + 1) - 1

    def test_words_in_length_lex_order(self):
        fam = FiniteFamily.full(K, 3)
        keys = [w.key() for w in fam.words()]
        assert keys == sorted(keys)

    def test_restrict(self):
        fam = FiniteFamily.full(K, N).restrict(3)
        assert fam.N == 3 and len(fam) == 15

    def test_extract_after_prefix(self):
        fam = family(lambda w: len(w) >= 1 and w[0] == 0)
        block = fam.extract_after_prefix(Word(K, (0,)), 2)
        assert block == 0b1111
        assert fam.extract_after_prefix(Word(K, (1,)), 2) == 0


class TestDensity:
    def test_full_and_empty(self):
        assert density(FiniteFamily.full(K, N), 5) == 1
        assert density(FiniteFamily.empty(K, N), 5) == 0

    def test_even_length_profile(self):
        fam = family(lambda w: len(w) % 2 == 0, n=6)
        prof = density_profile(fam, Fraction(1, 2))
        assert prof.witness_lengths == (0, 2, 4, 6)
        assert all(d in (0, 1) for d in prof.densities)

    def test_horizon_exceeded(self):
        with pytest.raises(HorizonExceeded):
            density(FiniteFamily.full(K, 3), 4)

    def test_exact_rationals(self):
        fam = family(lambda w: len(w) == 3 and w[0] == 1)
        assert density(fam, 3) == Fraction(1, 2)
        assert density(fam, 2) == 0


class TestDensitySplit:
    def test_everything_on_e(self):
        d = FiniteFamily.full(K, 6)
        rep = density_split(d, d, FiniteFamily.empty(K, 6), Fraction(1, 2))
        assert rep.side == "E" and rep.f_witness == ()
        assert rep.e_witness == tuple(range(7))

    def test_alternate_by_length(self):
        d = FiniteFamily.full(K, 6)
        e = family(lambda w: len(w) % 2 == 0, n=6)
        rep = density_split(d, e, d - e, Fraction(1, 2))
        assert set(rep.e_witness) | set(rep.f_witness) == set(range(7))
        assert set(rep.e_witness) & set(rep.f_witness) == set()

    def test_not_a_partition(self):
        d = FiniteFamily.full(K, 4)
        with pytest.raises(NotAPartition):
            density_split(d, d, d, Fraction(1, 2))

    def test_random_partitions_never_violate(self, rng):
        d = FiniteFamily.full(K, N)
        for _ in range(200):
            e = random_subfamily(rng, d)
            density_split(d, e, d - e, Fraction(1, 2))  # raises on violation


class TestSyndetic:
    def test_full(self):
        chk = is_syndetic(FiniteFamily.full(K, N), 1, want_witness=True)
        assert chk.ok
        assert all(len(t) == 0 for _, t in chk.witness.translators)

    def test_first_letter_zero(self):
        fam = family(lambda w: len(w) >= 1 and w[0] == 0)
        chk = is_syndetic(fam, 1, want_witness=True)
        assert chk.ok
        by_sigma = {s.symbols: t for s, t in chk.witness.translators}
        assert by_sigma[(1, 1)].symbols == (0,)

    def test_empty_counterexample(self):
        chk = is_syndetic(FiniteFamily.empty(K, N), 0)
        assert not chk.ok and len(chk.counterexample) == 0

    def test_witness_matches_reach(self, rng):
        for _ in range(20):
            fam = random_subfamily(rng, FiniteFamily.full(K, 6))
            for ell in (0, 1, 2):
                chk = is_syndetic(fam, ell)
                reach = prepend_reach(fam, ell)
                assert chk.ok == (len(reach) == reach.universe_size)


class TestThick:
    def test_full(self):
        assert is_thick(FiniteFamily.full(K, N), 3).ok

    def test_long_words(self):
        fam = family(lambda w: len(w) >= 3)
        chk = is_thick(fam, N - 3)
        assert chk.ok
        assert all(len(s) == 3 for _, s in chk.witness.anchors)

    def test_empty(self):
        chk = is_thick(FiniteFamily.empty(K, N), 0)
        assert not chk.ok and chk.failing_ell == 0

    def test_shrink_full(self):
        out = thick_shrink(FiniteFamily.full(K, N), 2)
        assert out.N == N - 2 and len(out) == out.universe_size

    def test_shrink_empty(self):
        assert len(thick_shrink(FiniteFamily.empty(K, N), 2)) == 0

    def test_shrink_matches_tau_walk(self):
        # the definition, one tau at a time: sigma stays when tau.sigma lies
        # in the family for every letter word tau of length <= ell
        rng = random.Random(1401)
        for k in (2, 3):
            for n in range(9):
                for ell in range(min(n, 3) + 1):
                    for density in (0.6, 0.95, 1.0):
                        fam = family(lambda w: rng.random() < density, k, n)
                        taus = list(letter_words(k, ell))
                        want = family(lambda s: all(t.concat(s) in fam for t in taus), k, n - ell)
                        assert thick_shrink(fam, ell) == want, (k, n, ell, density)

    def test_shrink_preserves_thickness(self, rng):
        for _ in range(40):
            dec = random_piecewise_syndetic(rng, K, N, 1, 3)
            fam = dec.thick
            for ell in (1, 2):
                for m in (1, 2):
                    if is_thick(fam, ell + m).ok:
                        assert is_thick(thick_shrink(fam, ell), m).ok


class TestDuality:
    def test_syndetic_meets_thick(self, rng):
        for _ in range(30):
            dec = random_piecewise_syndetic(rng, K, N, 1, 2)
            syn = is_syndetic(dec.syndetic, 1, want_witness=True)
            thk = is_thick(dec.thick, 1)
            assert syn.ok and thk.ok
            ell, sigma = thk.witness.anchors[1]
            tau = dict((s.symbols, t) for s, t in syn.witness.translators)[sigma.symbols]
            meet = tau.concat(sigma)
            assert meet in dec.syndetic and meet in dec.thick

    def test_monotone_under_superset(self, rng):
        base = random_piecewise_syndetic(rng, K, 6, 1, 2)
        small = base.syndetic
        big = small | random_subfamily(rng, FiniteFamily.full(K, 6))
        for r in range(7):
            assert density(small, r) <= density(big, r)
        for ell in (1, 2):
            if is_syndetic(small, ell).ok:
                assert is_syndetic(big, ell).ok
        tsmall = base.thick
        tbig = tsmall | random_subfamily(rng, FiniteFamily.full(K, 6))
        for m in (1, 2):
            if is_thick(tsmall, m).ok:
                assert is_thick(tbig, m).ok


class TestPwSplit:
    def test_all_on_b(self, rng):
        dec = random_piecewise_syndetic(rng, K, N, 1, 2)
        p = dec.part
        res = pw_split(dec, p, FiniteFamily.empty(K, N))
        assert res.side == "B"
        assert (dec.syndetic.mask | p.mask) == res.decomposition.syndetic.mask

    def test_empty_b(self, rng):
        dec = random_piecewise_syndetic(rng, K, N, 1, 2, 0.4, 0.4)
        res = pw_split(dec, FiniteFamily.empty(K, N), dec.part)
        if res.side == "C":
            assert res.thick_evidence is not None and res.thick_evidence.ok

    def test_identities_hold_on_random_inputs(self, rng):
        for _ in range(150):
            dec = random_piecewise_syndetic(rng, K, N, 1, 2, rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9))
            b = random_subfamily(rng, dec.part)
            res = pw_split(dec, b, dec.part - b)
            assert res.identity_b and res.identity_c
            assert res.decomposition.part.mask == res.chosen.mask

    def test_not_a_partition(self, rng):
        dec = random_piecewise_syndetic(rng, K, N, 1, 2)
        with pytest.raises(NotAPartition):
            pw_split(dec, dec.part, dec.part)


class TestBrown:
    def test_single_part(self, rng):
        dec = random_piecewise_syndetic(rng, K, N, 1, 2)
        sel = brown_select(dec, [dec.part])
        assert sel.index == 0

    def test_first_letter_parts(self, rng):
        dec = PwSyndeticDecomposition(
            FiniteFamily.full(K, N), FiniteFamily.full(K, N), 1
        )
        p = dec.part
        p0 = FiniteFamily.from_words(
            K, N, [w for w in p.words() if len(w) == 0 or w[0] == 0]
        )
        sel = brown_select(dec, [p0, p - p0])
        assert sel.index in (0, 1)
        assert sel.thick_evidence.ok

    def test_reverification_oracle(self, rng):
        for _ in range(40):
            dec = random_piecewise_syndetic(rng, K, N, 1, 2, rng.uniform(0.5, 0.95), rng.uniform(0.5, 0.95))
            p = dec.part
            a = random_subfamily(rng, p)
            b = random_subfamily(rng, p - a)
            parts = [a, b, p - a - b]
            try:
                sel = brown_select(dec, parts)
            except NoPartSelected:
                continue
            new = sel.decomposition
            assert is_syndetic(new.syndetic, dec.ell).ok
            assert is_thick(new.thick, dec.ell).ok
            assert new.part.mask == parts[sel.index].mask

    def test_syndetic_complement_selects_no_part(self):
        # ~T = everything but 000 is syndetic at ell = 1, so the one-part
        # subset is minimal and removing its part keeps it syndetic
        thick = FiniteFamily.from_words(K, 3, [Word(K, (0, 0, 0))])
        dec = PwSyndeticDecomposition(FiniteFamily.full(K, 3), thick, 1)
        assert is_syndetic(thick.complement(), 1).ok
        with pytest.raises(NoPartSelected) as exc:
            brown_select(dec, [thick])
        assert str(exc.value) == "complement of T is already syndetic at ell=1: no part is critical"

    def test_no_part_selected(self):
        dec = PwSyndeticDecomposition(
            FiniteFamily.full(K, 4), FiniteFamily.full(K, 4), 0
        )
        empty = FiniteFamily.empty(K, 4)
        # P = everything, parts must cover it; with ell=0 the base alone
        # is never syndetic once we delete the top length stratum
        parts = [FiniteFamily.from_words(K, 4, [w]) for w in [Word(K, ())]]
        with pytest.raises(NotAPartition):
            brown_select(dec, parts)


class TestCertify:
    def test_full_family(self):
        cert = pws_certify(FiniteFamily.full(K, N), 1, 2)
        assert cert is not None
        assert cert.decomposition.N == N - 1
        assert cert.decomposition.part.mask == FiniteFamily.full(K, N - 1).mask

    def test_empty_family(self):
        assert pws_certify(FiniteFamily.empty(K, N), 1, 2) is None

    def test_decomposition_identity(self, rng):
        for _ in range(40):
            fam = random_subfamily(rng, FiniteFamily.full(K, N))
            cert = pws_certify(fam, 1, 2)
            if cert is None:
                continue
            dec = cert.decomposition
            assert dec.part.mask == fam.restrict(dec.N).mask
            assert cert.syndetic_check.ok and cert.thick_check.ok


def random_family(rng, k, n, dense):
    """Family whose members are kept with probability about 1 - 2^-dense
    (dense > 0) or 2^dense (dense <= 0)."""
    size = FiniteFamily.full(k, n).universe_size
    mask = rng.getrandbits(size) if size else 0
    for _ in range(abs(dense)):
        mask = mask | rng.getrandbits(size) if dense > 0 else mask & rng.getrandbits(size)
    return FiniteFamily(k, n, mask)


class TestRankSpaceChecks:
    """The bitset checks against their object-level references in conftest."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_glued_inclusion_matches_word_route(self, k):
        rng = random.Random(600 + k)
        outcomes = set()
        for _ in range(150):
            n = rng.randrange(0, 9 if k < 3 else 6)
            p = random_family(rng, k, n, rng.choice([4, 3, 2, 0]))
            heads = [random_letters(rng, k, rng.randrange(n + 3)) for _ in range(rng.randrange(6))]
            residue = random_family(rng, k, rng.randrange(n + 3), rng.choice([0, -1, -3]))
            if rng.random() < 0.4:
                # the largest residue that holds: claim 2 passes, with heads past N
                keep = 0
                for r in range(residue.universe_size):
                    sigma = residue.unrank(r)
                    if all(len(h) + len(sigma) > n or h.concat(sigma) in p for h in heads):
                        keep |= 1 << r
                residue = FiniteFamily(k, residue.N, keep)
            got = glued_inclusion(heads, residue, p)
            assert got == glued_inclusion_ref(heads, residue, p)
            outcomes.add((got[0], got[2] > 0))
        # passes with and without glued words past N, failures with them
        assert outcomes >= {(True, True), (True, False), (False, True)}

    def test_glued_inclusion_rejects_other_alphabets(self):
        p = FiniteFamily.full(2, 3)
        with pytest.raises(HorizonExceeded):
            glued_inclusion([Word(2, (0,))], FiniteFamily.full(3, 1), p)
        with pytest.raises(HorizonExceeded):
            glued_inclusion([Word(3, (0,))], FiniteFamily.full(2, 1), p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_thick_matches_word_route(self, k):
        rng = random.Random(700 + k)
        seen = set()
        for _ in range(120):
            n = rng.randrange(0, 9 if k < 3 else 6)
            fam = random_family(rng, k, n, rng.choice([5, 4, 3, 2, 0]))
            ell_max = rng.randrange(n + 2)
            got = is_thick(fam, ell_max)
            assert got == is_thick_ref(fam, ell_max)
            seen.add(got.ok)
        assert seen == {True, False}

    def test_head_blocks_agree_on_every_small_family(self):
        # every k = 2 family with N <= 3, every ell <= N + 1: is_thick's anchors
        # are the lowest members of thick_shrink(F, ell), its failing ell is the
        # first whose shrink is empty (or N + 1, where none is defined), and
        # is_syndetic holds exactly where prepend_reach is full
        for n in range(4):
            for shrinking in (thick_shrink, prepend_reach):
                with pytest.raises(HorizonExceeded):
                    shrinking(FiniteFamily.full(2, n), n + 1)
            for mask in range(1 << FiniteFamily.full(2, n).universe_size):
                fam = FiniteFamily(2, n, mask)
                anchors = []
                for ell in range(n + 1):
                    shrink, reach = thick_shrink(fam, ell), prepend_reach(fam, ell)
                    assert is_syndetic(fam, ell).ok == (len(reach) == reach.universe_size)
                    if shrink.mask and len(anchors) == ell:
                        anchors.append((ell, shrink.unrank((shrink.mask & -shrink.mask).bit_length() - 1)))
                fails = is_thick(fam, n + 1)
                assert not fails.ok and fails.failing_ell == len(anchors)
                if anchors:
                    assert is_thick(fam, len(anchors) - 1).witness.anchors == tuple(anchors)
                if n <= 2:
                    assert fails == is_thick_ref(fam, n + 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prepend_reach_matches_word_route(self, k):
        rng = random.Random(800 + k)
        for _ in range(60):
            n = rng.randrange(0, 8 if k < 3 else 5)
            fam = random_family(rng, k, n, rng.choice([2, 0, -1, -3]))
            ell = rng.randrange(n + 1)
            taus = list(letter_words(k, ell))
            want = FiniteFamily.from_words(
                k,
                n - ell,
                [s for s in letter_words(k, n - ell) if any(t.concat(s) in fam for t in taus)],
            )
            assert prepend_reach(fam, ell) == want


def outcome(fn):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def parsed(k, n, texts):
    """``FiniteFamily.from_texts`` by the word route, errors included."""
    return FiniteFamily.from_words(k, n, [parse_word(t, k) for t in texts])


def lex_texts(k, n, mask):
    """The member texts of a mask, lazily: each length's words in lex order, by ``product``."""
    bits = bin(mask)[:1:-1]  # bits[r] is bit r
    r = 0
    for length in range(n + 1):
        band = map("1".__eq__, bits[r : r + k**length])
        r += k**length
        texts = ["-"] if length == 0 else map("".join, product("0123456789"[:k], repeat=length))
        yield from compress(texts, band)


class TestTextCodec:
    """``texts``/``from_texts`` against ``format_word``/``parse_word``."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_texts_match_format_word(self, k):
        rng = random.Random(900 + k)
        for n in range(13):
            size = FiniteFamily.full(k, n).universe_size
            # a sparse mask leaves some runs of a length without a member
            sparse = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
            for mask in (0, sparse, rng.getrandbits(size), (1 << size) - 1):
                fam = FiniteFamily(k, n, mask)
                got = fam.texts()
                if size <= 1 << 13:  # the word route costs microseconds a member
                    assert got == [format_word(w) for w in fam.words()]
                assert all(a == b for a, b in zip(got, lex_texts(k, n, mask), strict=True))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_from_texts_matches_parse_word(self, k):
        rng = random.Random(1000 + k)
        for n in range(1, 13):
            if FiniteFamily.full(k, n).universe_size > 1 << 13:
                break
            for dense in (3, 0, -2):
                texts = random_family(rng, k, n, dense).texts()
                shuffled = rng.sample(texts, len(texts))
                duplicated = texts + rng.choices(texts, k=len(texts) // 2 + 1) if texts else []
                for case in (texts, shuffled, duplicated):
                    assert FiniteFamily.from_texts(k, n, case) == parsed(k, n, case)

    @pytest.mark.parametrize(
        "bad",
        ["0-1", "", "--", "+1", "1_0", " 01", "0123", "2", "x0", "\u0661\u0660", "0" * 13,
         1, None, ["0"]],
    )
    def test_malformed_texts_take_the_parse_word_route(self, bad):
        for k in (2, 3):
            for texts in ([bad], ["-", "01", bad, "1"], ["1", "0" * 12, bad]):
                want = outcome(lambda: parsed(k, 12, texts))
                assert outcome(lambda: FiniteFamily.from_texts(k, 12, texts)) == want

    def test_size_bound_at_universe_cap(self):
        n = 21
        assert FiniteFamily.full(2, n).universe_size <= MAX_UNIVERSE
        one = FiniteFamily(2, n, 1 << (FiniteFamily.full(2, n).universe_size - 1))
        texts = ["-", "0" * n, "1" * n]
        for run, want in (
            (lambda: FiniteFamily.from_texts(2, n, texts), parsed(2, n, texts)),
            (one.texts, ["1" * n]),
        ):
            # the first call may load the codec and fill the low-digit
            # tables, at most 256 texts per length whatever the horizon; a
            # later call leaves at most a few small blocks on free lists
            for left in (48 << 10, 1 << 10):
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    got = run()
                    assert got == want
                    del got
                    gc.collect()
                    after, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak - before < 32 << 20
                assert after - before <= left


# pieces of family file lines: well-formed, out of range and junk
_FAMILY_NUMBERS = ["0", "1", "2", "3", "4", "-1", "-5", "1_0", "+2", "\u0662", "x", "1.5", "", "23"]
_FAMILY_WORDS = ["-", "0", "1", "2", "01", "10", "000", "0101", "x0", "0x0", "x1", "0 1", "", " ", "#", "\u0661"]


def _family_text(header, lines):
    return "\n".join([" ".join(header)] + lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(["0", "1", "2", "3"]), min_size=2, max_size=2),
        st.lists(st.sampled_from(_FAMILY_NUMBERS), max_size=3),
    ),
    st.lists(st.sampled_from(_FAMILY_WORDS), max_size=6),
)
def test_family_reader_returns_or_raises_input_error(header, lines):
    # a member with a variable, or longer than N, is an input error too
    try:
        fam = FiniteFamily.parse(_family_text(header, lines), "f.txt")
    except InputError as exc:
        assert exc.filename == "f.txt" and exc.line >= 1
    else:
        assert fam.N >= 0
        dumped = f"{fam.k} {fam.N}\n" + "".join(t + "\n" for t in fam.texts())
        assert FiniteFamily.parse(dumped) == fam


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 12), st.integers(-50, -1), st.lists(st.sampled_from(_FAMILY_WORDS), max_size=4))
def test_family_header_with_empty_domain_is_refused(k, n, lines):
    with pytest.raises(InputError) as info:
        FiniteFamily.parse(_family_text([str(k), str(n)], lines), "f.txt")
    assert (info.value.line, info.value.column) == (1, 1)


# ---------------------------------------------------------------------------
# the split and brown searches before their partition tests and side sets
# moved into ``split_sides``, ``check_partition`` and ``brown_side``, kept
# as references


def pw_split_ref(dec, b, c):
    from varword.largeness import PwSplitResult

    p = dec.part
    if (b | c).mask != p.mask or (b & c).mask:
        raise NotAPartition("B, C do not partition P")
    s, t = dec.syndetic, dec.thick
    s_tilde = b | (s - p)
    t_tilde = s_tilde.complement()
    id_b = (s_tilde & t).mask == b.mask
    id_c = (t_tilde & s).mask == c.mask
    if not (id_b and id_c):
        raise AssertionError("split identities failed; inputs corrupt")
    check = is_syndetic(s_tilde, dec.ell)
    if check.ok:
        return PwSplitResult("B", b, PwSyndeticDecomposition(s_tilde, t, dec.ell), id_b, id_c, check)
    evidence = is_thick(t_tilde, dec.ell)
    return PwSplitResult("C", c, PwSyndeticDecomposition(s, t_tilde, dec.ell), id_b, id_c, check, evidence)


def brown_select_ref(dec, parts):
    from itertools import combinations

    from varword.largeness import BrownSelection

    p = dec.part
    kparts = len(parts)
    if kparts == 0:
        raise NotAPartition("no parts supplied")
    if kparts > 8:
        raise NotAPartition("subset search capped at 8 parts")
    union = FiniteFamily.empty(dec.k, dec.N)
    for q in parts:
        if (union & q).mask:
            raise NotAPartition("parts overlap")
        union = union | q
    if union.mask != p.mask:
        raise NotAPartition("parts do not cover P")
    base = dec.thick.complement()

    def syndetic_of(indices):
        fam = base
        for j in indices:
            fam = fam | parts[j]
        return fam, is_syndetic(fam, dec.ell)

    chosen = None
    for size_ in range(1, kparts + 1):
        for combo in combinations(range(kparts), size_):
            fam, check = syndetic_of(combo)
            if check.ok:
                chosen = (combo, fam, check)
                break
        if chosen:
            break
    if chosen is None:
        _, full_check = syndetic_of(range(kparts))
        raise NoPartSelected(
            f"no subset of parts is syndetic at ell={dec.ell}; "
            f"counterexample {format_word(full_check.counterexample)}"
        )
    combo, s_prime, check = chosen
    for i in combo:
        rest = tuple(j for j in combo if j != i)
        _, removal = syndetic_of(rest)
        if not removal.ok:
            t_prime = dec.thick
            for j in rest:
                t_prime = t_prime - parts[j]
            new_dec = PwSyndeticDecomposition(s_prime, t_prime, dec.ell)
            if new_dec.part.mask != parts[i].mask:
                raise AssertionError("selected part identity failed")
            return BrownSelection(i, combo, new_dec, check, removal, is_thick(t_prime, dec.ell))
    raise NoPartSelected(f"complement of T is already syndetic at ell={dec.ell}: no part is critical")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotAPartition, NoPartSelected) as exc:
        return type(exc).__name__, str(exc)


def _split_and_brown_inputs(rng):
    """The inputs of ``TestPwSplit`` and ``TestBrown``, with the partition
    faults each refuses: (dec, b, c) splits and (dec, parts) selections."""
    splits, selections = [], []
    for i in range(60):
        lo = 0.3 if i % 2 else 0.5
        dec = random_piecewise_syndetic(rng, K, N, 1, 2, rng.uniform(lo, 0.95), rng.uniform(lo, 0.95))
        p = dec.part
        a = random_subfamily(rng, p)
        b = random_subfamily(rng, p - a)
        splits += [(dec, a, p - a), (dec, p, FiniteFamily.empty(K, N)), (dec, FiniteFamily.empty(K, N), p)]
        splits += [(dec, p, p), (dec, a, b)]  # overlap (when P is not empty), no cover
        selections += [(dec, [a, b, p - a - b]), (dec, [p]), (dec, [a, p - a]), (dec, [])]
        selections += [(dec, [a, p]), (dec, [a, b]), (dec, [a] + [FiniteFamily.empty(K, N)] * 8)]
    full = PwSyndeticDecomposition(FiniteFamily.full(K, N), FiniteFamily.full(K, N), 1)
    p0 = family(lambda w: len(w) == 0 or w[0] == 0)
    selections.append((full, [p0, full.part - p0]))
    thick = FiniteFamily.from_words(K, 3, [Word(K, (0, 0, 0))])
    selections.append((PwSyndeticDecomposition(FiniteFamily.full(K, 3), thick, 1), [thick]))
    return splits, selections


def test_split_and_brown_match_their_references(rng):
    # equal results, or the same refusal, before and after the move
    splits, selections = _split_and_brown_inputs(rng)
    seen = set()
    for dec, b, c in splits:
        got = _outcome(pw_split, dec, b, c)
        assert got == _outcome(pw_split_ref, dec, b, c)
        seen.add(got if type(got) is tuple else got.side)
    for dec, parts in selections:
        got = _outcome(brown_select, dec, parts)
        assert got == _outcome(brown_select_ref, dec, parts)
        seen.add(got[0] if type(got) is not tuple or got[0] == "NoPartSelected" else got)
    assert seen >= {
        "B", "C", 0, "NoPartSelected", ("NotAPartition", "B, C do not partition P"),
        ("NotAPartition", "parts overlap"), ("NotAPartition", "parts do not cover P"),
        ("NotAPartition", "no parts supplied"), ("NotAPartition", "subset search capped at 8 parts"),
    }


# ---------------------------------------------------------------------------
# ``pws_certify`` and ``density_split`` before their self-checks gave way to
# the set-algebra proofs in their docstrings, kept as references


def pws_certify_ref(family, ell, m_bound):
    from varword.largeness import PwCertification

    reach = prepend_reach(family, ell)
    thick_check = is_thick(reach, m_bound)
    if not thick_check.ok:
        return None
    trimmed = family.restrict(family.N - ell)
    s_fam = trimmed | reach.complement()
    dec = PwSyndeticDecomposition(s_fam, reach, ell)
    if dec.part.mask != trimmed.mask:
        raise AssertionError("canonical decomposition identity failed")
    syn = is_syndetic(s_fam, ell)
    if not syn.ok:
        raise AssertionError("canonical syndetic part failed its own check")
    return PwCertification(dec, syn, thick_check)


def density_split_ref(d, e, f, epsilon):
    from varword.largeness import DensitySplitReport

    if (e | f).mask != d.mask or (e & f).mask:
        raise NotAPartition("E, F do not partition D")
    epsilon = Fraction(epsilon)
    b = tuple(r for r in range(d.N + 1) if density(d, r) > epsilon)
    c = tuple(r for r in range(d.N + 1) if density(e, r) > epsilon / 2)
    cset = set(c)
    for r in b:
        if r not in cset:
            de, df = density(e, r), density(f, r)
            if de + df != density(d, r):
                raise AssertionError(f"densities do not add up at length {r}")
            if not df > epsilon / 2:
                raise AssertionError(f"split inequality fails at length {r}: dens(F)={df}")
    e_wit = tuple(r for r in b if r in cset)
    f_wit = tuple(r for r in b if r not in cset)
    side = "E" if len(e_wit) >= len(f_wit) else "F"
    return DensitySplitReport(epsilon, b, c, e_wit, f_wit, side)


def _any_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _certify_inputs():
    """Every family with k = 2 and N <= 2, then seeded random ones up to N = 8."""
    for n in range(3):
        size = FiniteFamily.full(K, n).universe_size
        for mask in range(1 << size):
            yield FiniteFamily(K, n, mask)
    rng = random.Random(2807)
    for i in range(120):
        yield random_family(rng, K, i % 9, i % 5 - 1)


def test_pws_certify_matches_its_reference():
    # equal certifications, or the same exception text, for ell 0..3 and m_bound 0..2
    seen = set()
    for fam in _certify_inputs():
        for ell in range(4):
            for m_bound in range(3):
                got = _any_outcome(pws_certify, fam, ell, m_bound)
                assert got == _any_outcome(pws_certify_ref, fam, ell, m_bound), (fam, ell, m_bound)
                seen.add(got[0] if type(got) is tuple else got is None)
    assert seen == {True, False, "HorizonExceeded"}


def _density_split_inputs(rng):
    for i in range(150):
        d = random_family(rng, K + i % 2, 3 + i % 5, i % 4 - 1)
        e = random_subfamily(rng, d)
        eps = Fraction(rng.randrange(-2, 12), rng.randrange(1, 10))
        yield d, e, d - e, eps
        yield d, d, FiniteFamily.empty(d.k, d.N), eps
        yield d, FiniteFamily.empty(d.k, d.N), d, eps


def test_density_split_matches_its_reference(rng):
    sides = set()
    for d, e, f, eps in _density_split_inputs(rng):
        got = density_split(d, e, f, eps)
        assert got == density_split_ref(d, e, f, eps)
        sides.add((got.side, bool(got.f_witness)))
    assert sides == {("E", False), ("E", True), ("F", True)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.randoms(use_true_random=False), st.fractions(-1, 2))
def test_density_split_identities(k, n, rnd, eps):
    # once E, F partition D: dens(E) + dens(F) = dens(D) at every length,
    # and dens(F) > eps/2 on B \ C, the F witnesses
    d = random_family(rnd, k, n, rnd.randrange(-1, 3))
    e = random_subfamily(rnd, d)
    f = d - e
    rep = density_split(d, e, f, eps)
    for r in range(n + 1):
        assert density(e, r) + density(f, r) == density(d, r)
    assert rep.f_witness == tuple(r for r in rep.b_lengths if r not in rep.c_lengths)
    for r in rep.f_witness:
        assert density(f, r) > eps / 2
