"""Translation between letter-alphabet colorings and variable-only colorings.

A coloring of n-variable words over an alphabet of k letters induces a
coloring of (k+n)-variable words over the empty alphabet: the first k
variables stand for the letters and the remaining ones for the
original variables.  With letters encoded as 0..k-1 and x_j as k+j,
the translation is a pure reinterpretation of the same symbol codes
under a different alphabet size, so encoding and decoding are
bijective on tables and ``decode . encode`` is the identity.

A monochromatic substitution prefix for the induced coloring pulls
back by substituting (a_0, ..., a_{k-1}, x_0, x_1, ...) for its
variables, which again is a reinterpretation of the same codes; the
pullback is re-checked against the original coloring on the full
in-horizon domain with ``certificates.check_cdrt``, the check
``varword verify`` runs on a cdrt certificate.
"""

from __future__ import annotations

from typing import NamedTuple

from .certificates import check_cdrt
from .colorings import Coloring
from .errors import IndexOutOfRange, InvalidWord
from .prehomog import CslCertificate
from .words import Word, dimension, format_word, is_prefix_valid, is_var_word, reread

__all__ = [
    "encode_word",
    "decode_word",
    "translate",
    "pullback_word",
    "CdrtPullback",
    "pullback_certificate",
]


def encode_word(u: Word, n: int) -> Word:
    """Reinterpret letters as the first k variable slots (empty alphabet)."""
    if not is_var_word(u, n):
        raise InvalidWord(f"{format_word(u)} is not an {n}-variable word")
    return reread(u, 0)


def decode_word(u_hat: Word, k: int, n: int) -> Word:
    """Substitute the first k variables by the letters a_0..a_{k-1}; k is
    the caller's, so ``Word(...)`` checks it."""
    w = Word(k, u_hat.symbols)
    if dimension(w) > n or not is_var_word(w, dimension(w)):
        raise InvalidWord(
            f"{format_word(u_hat)} does not decode to an {n}-variable word over {k} letters"
        )
    return w


def translate(coloring: Coloring) -> Coloring:
    """Induced coloring of the (k+n)-variable words over the empty alphabet.

    Each such word colors as the word of the same symbol codes over k
    letters: a proper (k+n)-variable word decodes to a valid n-variable
    word, so the induced coloring is total on its own domain.
    """
    k = coloring.k
    return Coloring.from_function(
        0, coloring.N, k + coloring.n, coloring.ell, lambda u: coloring(reread(u, k))
    )


def pullback_word(w_hat: Word, k: int) -> Word:
    """Substitute (a_0..a_{k-1}, x_0, x_1, ...) into a variable-only prefix.

    k is the caller's, so it is checked here, as ``Word(...)`` would;
    ``pullback_certificate`` passes the k of a coloring, checked when the
    coloring was built, so the cdrt search builds no checked word.
    """
    if not is_prefix_valid(w_hat):
        raise InvalidWord("pullback needs a prefix-valid variable word")
    if k < 0:
        raise IndexOutOfRange(f"alphabet size must be >= 0, got {k}")
    w = reread(w_hat, k)
    if not is_prefix_valid(w):
        raise InvalidWord("pullback broke prefix validity")
    return w


class CdrtPullback(NamedTuple):
    word: Word
    color: int
    checked: tuple[tuple[Word, Word], ...]  # (u, W[u]) over the original domain


def pullback_certificate(cert: CslCertificate, coloring: Coloring, depth: int) -> CdrtPullback:
    """Pull a certificate for the induced coloring back and re-check it.

    Every in-horizon pattern u of the original coloring up to ``depth``
    must satisfy C(W[u]) == color, where W is the pulled-back prefix
    (``certificates.check_cdrt``; a failure raises ``CheckFailed``).
    """
    w = pullback_word(cert.word, coloring.k)
    checked = check_cdrt(coloring, w, cert.color, depth)
    if not checked:
        raise InvalidWord("pullback verified nothing within the horizon")
    return CdrtPullback(w, cert.color, tuple(checked))
