"""Monochromatic substitution prefixes and prehomogeneity.

``csl_search`` looks for a prefix W of an infinite variable word such
that every in-horizon instantiation W[u] lands in one color class; the
certificate lists every checked pair.  For a coloring of (n+1)-variable
words, ``one_step_prehomog`` freezes the color of all extensions of a
given stem s: it colors the extension tails over the alphabet enlarged
by the stem's variables, runs the prefix search there, renames the
letter-variables back into variable slots and composes the result onto
W.  The output is below W in the pure-prefix order ``leq_m``.

Each search checks with the check ``varword verify`` runs on the
kind's certificate: ``csl_search`` decides every candidate with
``certificates.check_csl``, and ``one_step_prehomog`` re-checks its hit
against the original coloring with ``certificates.check_prehomog``.

All infinitary statements here are bounded searches with explicit
horizons; exhaustion raises NotFoundWithinHorizon.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .certificates import check_csl, check_prehomog, stem_extension_words
from .colorings import Coloring
from .errors import CheckFailed, CutPointMissing, InvalidWord, NotFoundWithinHorizon
from .words import (
    Word,
    compose,
    cut,
    dimension,
    extend,
    first_occurrence,
    format_word,
    is_prefix_valid,
    is_var_word,
    letter_words,
    prefix_valid_words,
    substitute,
    var_words,
)

__all__ = [
    "CslCertificate",
    "csl_search",
    "PrehomogReport",
    "prehomog_check",
    "OneStepCertificate",
    "one_step_prehomog",
    "LeqResult",
    "leq_m_check",
]


class CslCertificate(NamedTuple):
    word: Word  # prefix-valid W
    color: int
    depth: int
    checked: tuple[tuple[Word, Word], ...]  # (u, W[u]) pairs


def csl_search(
    coloring: Coloring,
    depth: int,
    max_len: Optional[int] = None,
) -> CslCertificate:
    """Lex-least prefix W whose in-horizon instantiations are one color.

    W must contain x_0 .. x_depth so that W[u] is defined for every
    pattern u of length up to depth; all these instantiations must fall
    in a single color class.  By the cut rule (CHANGES.md) they lie in
    the domain once x_depth first occurs by position N: so W has at most
    N + 1 symbols (a longer W has the images of its prefix through its
    first x_depth, met first), and a depth past N has no W.

    Each candidate is decided by ``certificates.check_csl``, which fails
    it at its first image of another color.  The color asked for is that
    of the first pattern x_0 ... x_{n-1}, whose image is W cut before its
    first x_n.
    """
    k, n = coloring.k, coloring.n
    cap = coloring.N + 1 if max_len is None else max_len
    if depth < n:  # no pattern of the coloring's dimension is that short
        raise InvalidWord(f"no dimension-{n} patterns up to depth {depth}")
    for w in prefix_valid_words(k, min(cap, coloring.N + 1), min_vars=depth + 1):
        color = coloring.get(cut(w, first_occurrence(w, n)))
        try:
            return CslCertificate(w, color, depth, tuple(check_csl(coloring, w, color, depth)))
        except CheckFailed:
            continue
    raise NotFoundWithinHorizon(f"no monochromatic prefix of length <= {cap} at depth {depth}")


# ---------------------------------------------------------------------------
# prehomogeneity


class PrehomogReport(NamedTuple):
    ok: bool
    checked: int
    counterexample: Optional[tuple[Word, Word, Word]] = None  # (s, t0, t1)


def prehomog_check(
    w: Word,
    coloring: Coloring,
    stem_max: int,
    tail_max: int,
) -> PrehomogReport:
    """Does the color of W[t] for t ⊒ s.x_n depend only on the stem s?

    Scans stems s of dimension n = coloring.n - 1 up to length stem_max
    (and N - 1: a longer stem has no extension of length <= N), and their
    extensions whose images the horizon can color; returns the lex-least
    violating (s, t0, t1) if any.  W must be prefix-valid, so that by the
    cut rule (CHANGES.md) each of these images is colored.
    """
    if coloring.n < 1:
        raise InvalidWord("prehomogeneity needs a coloring of dimension >= 1")
    if not is_prefix_valid(w):
        raise InvalidWord("W must be prefix-valid")
    n = coloring.n - 1
    k = coloring.k
    checked = 0
    for s in var_words(k, min(stem_max, coloring.N - 1), dim=n):
        first_t = None
        first_color = None
        for t in stem_extension_words(s, n, tail_max, w, coloring.N):
            c = coloring.get(substitute(w, t, omega=True))
            checked += 1
            if first_t is None:
                first_t, first_color = t, c
            elif c != first_color:
                return PrehomogReport(False, checked, (s, first_t, t))
    return PrehomogReport(True, checked)


class OneStepCertificate(NamedTuple):
    w_hat: Word
    color: int
    stem: Word
    z_word: Word  # the pure-prefix substitution with w_hat = compose(w, z_word)
    inner: CslCertificate
    checked: tuple[tuple[Word, Word], ...]  # (t, w_hat[t]) re-verified pairs


def one_step_prehomog(
    w: Word,
    stem: Word,
    coloring: Coloring,
    depth: int = 1,
    verify_tail: int = 1,
) -> OneStepCertificate:
    """Freeze the color of all in-horizon extensions of stem.x_n along W.

    Builds the derived coloring of extension tails over the alphabet
    enlarged by x_0..x_n (total on tails up to the tail horizon: the
    largest length W and the coloring horizon support, at least depth
    and at most depth + 3), finds a monochromatic substitution prefix U
    there, renames the letter-variables x_m to the variable slots of
    their first occurrence in stem.x_n and the search variables to
    fresh slots, and composes the renamed prefix onto W after the pure
    prefix z_0..z_{|stem|}.  The conclusion is re-checked on every
    in-horizon extension with ``certificates.check_prehomog`` before
    returning; a failed check raises ``CheckFailed``, and an extension
    range with nothing in the horizon raises NotFoundWithinHorizon.
    """
    if coloring.n < 1:
        raise InvalidWord("need a coloring of dimension >= 1")
    n = coloring.n - 1
    k = coloring.k
    if stem.k != k or dimension(stem) != n or not is_var_word(stem, n):
        raise InvalidWord(f"stem must be an {n}-variable word")
    if not is_prefix_valid(w):
        raise InvalidWord("W must be prefix-valid")

    ke = k + n + 1  # letters of A plus x_0..x_n as extra letters
    base = extend(stem, (k + n,))

    # largest tail length whose images stay defined and in-domain
    tail_horizon = depth
    while tail_horizon < depth + 3:
        at = first_occurrence(w, len(stem) + 1 + tail_horizon + 1)
        if at is None or at > coloring.N:
            break
        tail_horizon += 1

    def derived(u_ext: Word) -> Word:
        # u_ext is a letter word over the enlarged alphabet; the same
        # integer codes read as A-letters and variables x_0..x_n.
        return substitute(w, extend(base, u_ext.symbols), omega=True)

    colors = []  # in rank order: letter_words walks the domain of f_s in it
    for u_ext in letter_words(ke, tail_horizon):
        img = derived(u_ext)  # CutPointMissing propagates: horizon too short
        c = coloring.get(img)
        if c is None:
            raise CutPointMissing(
                f"derived word {format_word(img)} leaves the coloring domain"
            )
        colors.append(c)
    f_s = Coloring(ke, tail_horizon, 0, coloring.ell, colors)

    inner = csl_search(f_s, depth)

    # rename: letter x_m -> z at the first occurrence of x_m in stem.x_n,
    # search variable y_b -> fresh slot z_{|stem|+1+b}
    first_slot = [0] * (n + 1)
    for m in range(n):
        first_slot[m] = first_occurrence(stem, m)
    first_slot[n] = len(stem)
    mapped = [k + j for j in range(len(stem) + 1)]  # the pure prefix z_0 .. z_{|stem|}
    for sym in inner.word.symbols:
        if sym < k:
            mapped.append(sym)
        elif sym < ke:
            mapped.append(k + first_slot[sym - k])
        else:
            mapped.append(k + len(stem) + 1 + (sym - ke))
    z_word = extend(cut(stem, 0), mapped)
    w_hat = compose(w, z_word)
    checked = check_prehomog(coloring, w, stem, verify_tail, w_hat, z_word, inner.color)
    if not checked:
        raise NotFoundWithinHorizon("no in-horizon extension could be re-verified")
    return OneStepCertificate(
        w_hat, inner.color, stem, z_word, inner, tuple(checked)
    )


# ---------------------------------------------------------------------------
# the pure-prefix order


class LeqResult(NamedTuple):
    ok: bool
    witness: Optional[Word] = None


def leq_m_check(w_hat: Word, w: Word, m: int, max_len: int = 8) -> LeqResult:
    """Search for V with pure prefix z_0..z_{m-1}, at most two variables
    past it and length at most max_len, and compose(w, V) matching w_hat.

    Matching means agreement on the common defined region (one word is
    a prefix of the other); a candidate whose composition truncates
    very early can therefore match vacuously, which is the honest
    reading of prefix approximations.  Callers needing the strong
    relation keep the explicit substitution word instead (the one-step
    certificates do).  Returns the first witness in length-then-lex
    order, or ok=False after exhausting the bounded space.
    """
    k = w.k

    def keep(syms, i):  # z_0 .. z_{m-1} in place, then at most two more variables
        return syms[i] == k + i if i < m else syms[i] != k + m + 2

    for v in var_words(k, max(max_len, m), min_len=m, keep=keep):
        z = compose(w, v)
        overlap = min(len(z), len(w_hat))
        if z.symbols[:overlap] == w_hat.symbols[:overlap]:
            return LeqResult(True, v)
    return LeqResult(False)
