"""The cut rule bounds the csl, cdrt and prehomog pattern walks.

W[u] is W cut before its first x_|u|.  In a prefix-valid W first
occurrences ascend, so for a valid n-variable pattern u whose cut c is
at most N the image is a valid n-variable word of length c, which a
total coloring colors.  The four walks rely on this and skip nothing;
each is compared here with a copy of its earlier form, which walked
every length and guarded each image.
"""

import itertools
import random

import pytest

from varword import certificates as certs
from varword import words
from varword.certificates import stem_extension_words
from varword.colorings import Coloring
from varword.errors import CutPointMissing, InvalidWord, NotFoundWithinHorizon, VarwordError
from varword.prehomog import CslCertificate, PrehomogReport, csl_search, prehomog_check
from varword.words import (
    Word,
    compose,
    dimension,
    first_occurrence,
    is_prefix_valid,
    letter_words,
    prefix_valid_words,
    substitute,
    var_words,
)

K = 2


# ---------------------------------------------------------------------------
# the earlier walks, kept as references


def csl_search_ref(coloring, depth, max_len=None):
    k = coloring.k
    cap = coloring.N + 1 if max_len is None else max_len
    patterns = list(var_words(k, depth, dim=coloring.n))
    if not patterns:
        raise InvalidWord(f"no dimension-{coloring.n} patterns up to depth {depth}")
    cands = (
        w
        for w in prefix_valid_words(k, cap, min_vars=depth + 1)
        if first_occurrence(w, depth) is not None and first_occurrence(w, depth) <= coloring.N
    )

    def attempt(w):
        color = None
        checked = []
        for u in patterns:
            try:
                img = substitute(w, u, omega=True)
            except CutPointMissing:
                return None
            c = coloring.get(img)
            if c is None:
                return None
            if color is None:
                color = c
            elif c != color:
                return None
            checked.append((u, img))
        assert certs.check_csl(coloring, w, color, depth) == checked
        return CslCertificate(w, color, depth, tuple(checked))

    hit = next((r for r in map(attempt, cands) if r is not None), None)
    if hit is None:
        raise NotFoundWithinHorizon(f"no monochromatic prefix of length <= {cap} at depth {depth}")
    return hit


def stem_extension_words_ref(stem, k, n, tail_max, w_hat, horizon):
    base = stem.symbols + (k + n,)
    symbols = list(range(k)) + [k + j for j in range(n + 1)]
    for tail_len in range(min(tail_max, dimension(w_hat) - 1 - len(base)) + 1):
        cut = first_occurrence(w_hat, len(base) + tail_len)
        if cut is None or cut > horizon:
            continue
        for tail in itertools.product(symbols, repeat=tail_len):
            yield Word(k, base + tail)


def prehomog_check_ref(w, coloring, stem_max, tail_max):
    if coloring.n < 1:
        raise InvalidWord("prehomogeneity needs a coloring of dimension >= 1")
    n = coloring.n - 1
    k = coloring.k
    checked = 0
    for s in var_words(k, stem_max, dim=n):
        first_t = None
        first_color = None
        for t in stem_extension_words_ref(s, k, n, tail_max, w, coloring.N):
            c = coloring.get(substitute(w, t, omega=True))
            if c is None:
                continue
            checked += 1
            if first_t is None:
                first_t, first_color = t, c
            elif c != first_color:
                return PrehomogReport(False, checked, (s, first_t, t))
    return PrehomogReport(True, checked)


def check_prehomog_ref(coloring, w, stem, tail_max, w_hat, z, color):
    n = coloring.n - 1
    m = len(stem) + 1
    certs._need(is_prefix_valid(w), "w is not prefix-valid")
    certs._need(is_prefix_valid(z), "z is not prefix-valid")
    certs._need(
        z.symbols[:m] == tuple(z.k + j for j in range(m)),
        "z does not start with a pure variable prefix",
    )
    certs._need(compose(w, z) == w_hat, "w_hat is not compose(w, z)")
    pairs = []
    for t in stem_extension_words_ref(stem, coloring.k, n, tail_max, w_hat, coloring.N):
        try:
            img = substitute(w_hat, t, omega=True)
        except VarwordError:
            continue
        c = coloring.get(img)
        if c is None:
            continue
        certs._need(c == color, "color breaks at t={}", t)
        pairs.append((t, img))
    return pairs


def check_cdrt_ref(coloring, w, color, depth):
    certs._need(is_prefix_valid(w), "pullback is not prefix-valid")
    pairs = []
    for length in range(min(depth, dimension(w) - 1) + 1):
        cut = first_occurrence(w, length)
        if cut is None or cut > coloring.N:
            continue
        for u in var_words(coloring.k, length, dim=coloring.n, min_len=length):
            try:
                img = substitute(w, u, omega=True)
            except VarwordError:
                continue
            c = coloring.get(img)
            if c is None:
                continue
            certs._need(c == color, "pullback color breaks at {}", u)
            pairs.append((u, img))
    return pairs


def _outcome(fn, *args):
    """The value fn returns, or the type and text of the package error it raises."""
    try:
        return fn(*args)
    except VarwordError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the rule itself


@pytest.mark.parametrize("k, max_len", [(1, 6), (2, 4)])
def test_images_under_the_cut_are_colored(k, max_len):
    # every prefix-valid W and valid pattern u whose cut exists: the image
    # is an n-variable word of length cut, so a coloring of horizon N >= cut colors it
    for w in prefix_valid_words(k, max_len):
        for u in var_words(k, dimension(w) - 1):
            n = dimension(u)
            img = substitute(w, u, omega=True)
            assert len(img) == first_occurrence(w, len(u))
            assert words.is_var_word(img, n)


# ---------------------------------------------------------------------------
# agreement with the references


def _two_colorings(n_horizon):
    domain = list(letter_words(K, n_horizon))
    for bits in range(1 << len(domain)):
        yield Coloring(K, n_horizon, 0, 2, [(bits >> i) & 1 for i in range(len(domain))])


def test_csl_search_matches_reference_on_every_small_coloring():
    n_horizon = 2
    for c in _two_colorings(n_horizon):
        for depth in range(5):
            for max_len in [None, *range(1, n_horizon + 5)]:
                want = _outcome(csl_search_ref, c, depth, max_len)
                assert _outcome(csl_search, c, depth, max_len) == want, (c.colors, depth, max_len)


def _dimension_one_colorings():
    """The k = 2 dimension-1 colorings the prehomog and cdrt tests use, and
    seeded random ones at small horizons."""
    def by_second(t):
        if len(t) < 2:
            return 0
        return 2 if t.symbols[1] == K else t.symbols[1]

    def checkerboard(w):
        return (len(w) + sum(1 for s in w.symbols if s >= K)) % 2

    out = [
        Coloring.constant(K, 8, 1, 2),
        Coloring.constant(K, 5, 1, 2),
        Coloring.constant(K, 6, 1, 3, 2),
        Coloring.from_function(K, 8, 1, 2, lambda t: 1 if t.symbols[0] == K else 0),
        Coloring.from_function(K, 8, 1, 2, lambda t: len(t) % 2),
        Coloring.from_function(K, 8, 1, 3, by_second),
        Coloring.from_function(K, 4, 1, 2, checkerboard),
    ]
    rng = random.Random(26)
    for n_horizon in (1, 2, 3, 4, 4, 5):
        size = sum(1 for _ in var_words(K, n_horizon, dim=1))
        out.append(Coloring(K, n_horizon, 1, 2, [rng.randrange(2) for _ in range(size)]))
    return out


def test_prehomog_check_matches_reference():
    ws = [w for w in prefix_valid_words(K, 3) if dimension(w) >= 1]
    ws += [words.parse_word(t, K) for t in ("x0x1x2x3x4x5x6x7", "x00x1x2[1]x3x4", "x0x1x0x2x3x1x4")]
    for c in _dimension_one_colorings():
        for w in ws:
            for stem_max, tail_max in ((0, 1), (1, 2), (9, 2)):
                want = _outcome(prehomog_check_ref, w, c, stem_max, tail_max)
                assert _outcome(prehomog_check, w, c, stem_max, tail_max) == want


def test_prehomog_check_refuses_a_word_that_is_not_prefix_valid():
    c = Coloring.constant(K, 4, 1, 2)
    with pytest.raises(InvalidWord, match="^W must be prefix-valid$"):
        prehomog_check(words.parse_word("x1x0x2x3", K), c, 1, 1)


def test_check_cdrt_matches_reference():
    colorings = _dimension_one_colorings() + [
        Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0),
        Coloring.constant(K, 5, 0, 2, 1),
    ]
    ws = list(var_words(K, 5)) + [Word(K, (3, 2)), Word(K, (2, 4, 3))]
    for c in colorings:
        for w in ws:
            for depth in (0, 1, 2, 6):
                for color in range(c.ell):
                    want = _outcome(check_cdrt_ref, c, w, color, depth)
                    assert _outcome(certs.check_cdrt, c, w, color, depth) == want


def test_check_prehomog_matches_reference():
    zs = [z for z in prefix_valid_words(K, 4) if z.symbols[:1] == (K,)]
    zs += [Word(K, (3, 2)), Word(K, (0, 2))]
    for c in _dimension_one_colorings()[::2]:
        for w in (words.parse_word("x0x1x2x3x4x5", K), words.parse_word("x00x1x2[1]x3", K)):
            for stem in var_words(K, 1, dim=0):
                for z in zs:
                    w_hat = compose(w, z)
                    for color in range(c.ell):
                        args = (c, w, stem, 2, w_hat, z, color)
                        assert _outcome(certs.check_prehomog, *args) == _outcome(check_prehomog_ref, *args)


def test_stem_extension_words_match_reference():
    for w_hat in prefix_valid_words(K, 5):
        for stem in var_words(K, 2, dim=1):
            for horizon in (3, 5):
                args = (1, 2, w_hat, horizon)
                assert list(stem_extension_words(stem, *args)) == list(stem_extension_words_ref(stem, K, *args))
