"""Bounded-horizon largeness notions over word families.

A family is a subset of all letter words of length at most N, stored
as a bitset indexed by length-then-lex rank, so that the set algebra
of the split lemmas is plain bitwise work.  All densities are exact
rationals; nothing in this module touches floating point.

Horizon semantics:

* ``is_syndetic(S, ell)`` quantifies over sigma of length <= N - ell
  (every in-horizon word reaches S by prepending at most ell symbols).
* ``is_thick(T, m)`` demands an anchor block ``A^{<=l} . sigma`` inside
  T for every l <= m, with ``|sigma| + l <= N``.
* ``glued_inclusion(heads, R, P)`` checks ``head . sigma`` in P for
  every head and every sigma in R, counting the glued words longer than
  P's horizon as skipped; ``certificates.check_builder_stage``, its one
  caller, decides the step search's, builder's and verifier's claims.
* a piecewise syndetic set is carried together with its decomposition
  ``P = S & T`` and the syndeticity bound ell; ``pws_certify`` rebuilds
  such a decomposition for a raw family from the thickness of its
  prepend-reachability set, at the reduced horizon N - ell.

Both notions are monotone in the horizon and literally true there, so
every lemma check in this module is an exact statement about finite
sets, not an approximation that may drift.

Within one length, the words that start with a fixed prefix form one
contiguous run of ranks, so "every prefix . sigma with |sigma| = m lies
in F" is one AND of a k^m-bit block of F's mask.  Thickness and glued
inclusion are checked that way, one length at a time, without building
a ``Word`` per member.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ._frozen import Frozen
from .errors import (
    HorizonExceeded,
    IndexOutOfRange,
    InputError,
    NoPartSelected,
    NotAPartition,
    VarwordError,
)
from .words import MAX_UNIVERSE, Word, _line_values, _offsets, check_universe, format_word, letter_words, parse_word
from .words import rank, unrank

__all__ = [
    "MAX_UNIVERSE",
    "check_family_size",
    "FiniteFamily",
    "DensityProfile",
    "DensitySplitReport",
    "SyndeticityWitness",
    "SyndeticCheck",
    "ThickWitness",
    "ThickCheck",
    "PwSyndeticDecomposition",
    "PwSplitResult",
    "BrownSelection",
    "PwCertification",
    "split_sides",
    "check_partition",
    "brown_side",
    "density",
    "density_profile",
    "density_split",
    "is_syndetic",
    "is_thick",
    "glued_inclusion",
    "pw_split",
    "brown_select",
    "thick_shrink",
    "prepend_reach",
    "pws_certify",
    "random_piecewise_syndetic",
]


def check_family_size(k: int, n: int) -> None:
    """Reject a family header (k, N) read from outside before any mask is built.

    A family's mask holds one bit per word of A^{<=N} and its offset
    table one entry per length, so either past ``MAX_UNIVERSE`` raises
    ``DomainTooLarge``; a negative k, or a negative N (an empty A^{<=N}),
    raises ``IndexOutOfRange``.
    """
    if n < 0:
        raise IndexOutOfRange(f"family with k={k}, N={n} has an empty domain: N < 0")
    check_universe(k, n, f"family with k={k}, N={n}")


class FiniteFamily(Frozen):
    """Subset of A^{<=N} as a bitset keyed by length-then-lex rank."""

    __slots__ = ("k", "N", "mask")

    def __init__(self, k: int, N: int, mask: int = 0):
        _set_k(self, k)
        _set_n(self, N)
        _set_mask(self, mask)

    # -- construction ------------------------------------------------

    @classmethod
    def empty(cls, k: int, n: int) -> "FiniteFamily":
        return cls(k, n, 0)

    @classmethod
    def full(cls, k: int, n: int) -> "FiniteFamily":
        return cls(k, n, (1 << _offsets(k, n)[n + 1]) - 1)

    @classmethod
    def from_words(cls, k: int, n: int, words: Iterable[Word]) -> "FiniteFamily":
        fam, mask = cls(k, n), 0
        for w in words:
            mask |= 1 << fam.rank(w)
        return cls(k, n, mask)

    # -- ranks -------------------------------------------------------

    def rank(self, w: Word) -> int:
        """w's rank (``words.rank`` at dimension 0); a word longer than N, or
        one with a variable, raises ``HorizonExceeded``."""
        r = rank(self.k, self.N, 0, w.symbols)
        if r is None:
            if len(w) > self.N:
                raise HorizonExceeded(f"|{format_word(w)}| > horizon {self.N}")
            raise HorizonExceeded(f"{format_word(w)} contains a variable")
        return r

    def unrank(self, r: int) -> Word:
        return unrank(self.k, self.N, 0, r)

    @property
    def universe_size(self) -> int:
        return _offsets(self.k, self.N)[self.N + 1]

    # -- set protocol --------------------------------------------------

    def __contains__(self, w: Word) -> bool:
        if len(w) > self.N or w.k != self.k:
            return False
        return bool(self.mask >> self.rank(w) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def words(self) -> Iterator[Word]:
        bits = bin(self.mask)[:1:-1]  # bits[r] is bit r
        r = bits.find("1")
        while r >= 0:
            yield self.unrank(r)
            r = bits.find("1", r + 1)

    # -- text codec ----------------------------------------------------

    def texts(self) -> list[str]:
        """``format_word`` of each member in rank order.

        For 2 <= k <= 10 a member's text is its lex value in base k, one
        digit per letter, so each length's texts are picked out of a
        table of low-digit texts by that length's bits, under each high
        prefix that has a member; no Word is built.
        """
        if not 2 <= self.k <= 10:
            return [format_word(w) for w in self.words()]
        from ._family_text import digit_texts  # compiled on first use only

        return digit_texts(self.k, _offsets(self.k, self.N), self.mask)

    @classmethod
    def from_texts(cls, k: int, n: int, texts: Sequence) -> "FiniteFamily":
        """``from_words(k, n, [parse_word(t, k) for t in texts])``, errors included.

        For 2 <= k <= 10, when the list holds only strings that are ``-``
        or 1..n ASCII digits below k, each rank is
        ``offsets[len(t)] + int(t, k)``; any other input goes through
        ``parse_word`` whole.
        """
        if 2 <= k <= 10 and n >= 1:
            from ._family_text import digit_mask  # compiled on first use only

            mask = digit_mask(k, n, texts)
            if mask is not None:
                return cls(k, n, mask)
        return cls.from_words(k, n, [parse_word(t, k) for t in texts])

    @classmethod
    def parse(cls, text: str, filename: str = "<family>") -> "FiniteFamily":
        """The family file form: a header ``k N``, then one word per line."""
        lines = text.splitlines()
        if not lines:
            raise InputError("empty family file", filename, 1, 1)
        head = lines[0].split()
        if len(head) != 2:
            raise InputError("expected header 'k N'", filename, 1, 1)
        try:
            k, n = int(head[0]), int(head[1])
        except ValueError:
            raise InputError("header 'k N' must be two integers", filename, 1, 1) from None
        try:
            check_family_size(k, n)
        except VarwordError as exc:
            raise InputError(str(exc), filename, 1, 1) from None
        fam, mask = cls(k, n), 0
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                mask |= 1 << fam.rank(parse_word(line.strip(), k))
            except VarwordError as exc:
                raise InputError(str(exc), filename, i, 1) from None
        return cls(k, n, mask)

    def _check(self, other: "FiniteFamily") -> None:
        if (self.k, self.N) != (other.k, other.N):
            raise HorizonExceeded("family parameters differ")

    def __or__(self, other):
        self._check(other)
        return FiniteFamily(self.k, self.N, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return FiniteFamily(self.k, self.N, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return FiniteFamily(self.k, self.N, self.mask & ~other.mask)

    def complement(self) -> "FiniteFamily":
        return FiniteFamily(
            self.k, self.N, ~self.mask & ((1 << self.universe_size) - 1)
        )

    def band(self, length: int) -> int:
        """Bit block of the length-r stratum (values in lex order)."""
        offs = _offsets(self.k, self.N)
        width = self.k**length
        return (self.mask >> offs[length]) & ((1 << width) - 1)

    def restrict(self, new_n: int) -> "FiniteFamily":
        """Drop members longer than new_n; ranks are prefix-stable."""
        if new_n > self.N:
            raise HorizonExceeded(f"cannot extend horizon {self.N} to {new_n}")
        total = _offsets(self.k, new_n)[new_n + 1]
        return FiniteFamily(self.k, new_n, self.mask & ((1 << total) - 1))

    # -- word arithmetic ----------------------------------------------

    def extract_after_prefix(self, prefix: Word, m: int) -> int:
        """Bitmask over v(sigma) of {sigma in A^m : prefix.sigma in family}."""
        lp = len(prefix)
        if lp + m > self.N:
            return 0
        offs = _offsets(self.k, self.N)
        width = self.k**m
        base = offs[lp + m] + (self.rank(prefix) - offs[lp]) * width
        return (self.mask >> base) & ((1 << width) - 1)

    def line_residue(self, generator: Word) -> "FiniteFamily":
        """{sigma : g[a].sigma in family for every letter a}, at horizon N - |g|.

        g is a 1-variable word; g[a] has lex value ``base + a * ones``
        (``words._line_values``).
        """
        k = self.k
        n2 = self.N - len(generator)
        if n2 < 0:
            return FiniteFamily.empty(k, 0)
        base, ones = _line_values(k, generator.symbols)
        heads = [(len(generator), [base + a * ones for a in range(k)])]
        return _stack(k, n2, _head_blocks(self, heads, n2, every=True))

    def append(self, sigma: Word) -> tuple["FiniteFamily", int]:
        """Family . sigma = {tau sigma}, and the count of members pushed past N,
        which are dropped."""
        n = len(sigma)
        ks = self.k**n
        vs = FiniteFamily(self.k, n).rank(sigma) - _offsets(self.k, n)[n]  # lex value, for any |sigma|
        offs = _offsets(self.k, self.N)
        mask = 0
        dropped = 0
        for length in range(self.N + 1):
            band = self.band(length)
            if not band:
                continue
            if length + n > self.N:
                dropped += band.bit_count()
                continue
            base = offs[length + n]
            v = 0
            while band:
                if band & 1:
                    mask |= 1 << (base + v * ks + vs)
                band >>= 1
                v += 1
        return FiniteFamily(self.k, self.N, mask), dropped


# the slots' own setters: ``FiniteFamily`` refuses ``setattr`` once built
_set_k = FiniteFamily.k.__set__
_set_n = FiniteFamily.N.__set__
_set_mask = FiniteFamily.mask.__set__


# ---------------------------------------------------------------------------
# density


def density(family: FiniteFamily, r: int) -> Fraction:
    """Exact |D cap A^r| / k^r."""
    if r > family.N:
        raise HorizonExceeded(f"length {r} beyond horizon {family.N}")
    if family.k == 0 and r > 0:
        raise IndexOutOfRange(f"no word of length {r} over an empty alphabet: its density is undefined")
    return Fraction(family.band(r).bit_count(), family.k**r)


class DensityProfile(NamedTuple):
    densities: tuple[Fraction, ...]
    epsilon: Fraction
    witness_lengths: tuple[int, ...]


def density_profile(family: FiniteFamily, epsilon: Fraction) -> DensityProfile:
    dens = tuple(density(family, r) for r in range(family.N + 1))
    wits = tuple(r for r, d in enumerate(dens) if d > epsilon)
    return DensityProfile(dens, Fraction(epsilon), wits)


class DensitySplitReport(NamedTuple):
    epsilon: Fraction
    b_lengths: tuple[int, ...]  # lengths where D exceeds epsilon
    c_lengths: tuple[int, ...]  # lengths where E exceeds epsilon/2
    e_witness: tuple[int, ...]
    f_witness: tuple[int, ...]
    side: str  # 'E' or 'F'


def density_split(
    d: FiniteFamily, e: FiniteFamily, f: FiniteFamily, epsilon: Fraction
) -> DensitySplitReport:
    """Case split of the density partition lemma, with exact rationals.

    B holds the lengths where dens(D) > epsilon, C those where dens(E) >
    epsilon/2; the side with more witness lengths is reported.  E, F
    partition D, so dens(E) + dens(F) = dens(D) and, on B \\ C,
    dens(F) > epsilon - epsilon/2: neither is re-checked.
    """
    if (e | f).mask != d.mask or (e & f).mask:
        raise NotAPartition("E, F do not partition D")
    epsilon = Fraction(epsilon)
    b = tuple(r for r in range(d.N + 1) if density(d, r) > epsilon)
    c = tuple(r for r in range(d.N + 1) if density(e, r) > epsilon / 2)
    cset = set(c)
    e_wit = tuple(r for r in b if r in cset)
    f_wit = tuple(r for r in b if r not in cset)
    side = "E" if len(e_wit) >= len(f_wit) else "F"
    return DensitySplitReport(epsilon, b, c, e_wit, f_wit, side)


# ---------------------------------------------------------------------------
# syndeticity / thickness


class SyndeticityWitness(NamedTuple):
    ell: int
    translators: tuple[tuple[Word, Word], ...]  # (sigma, tau) with tau.sigma in S


class SyndeticCheck(NamedTuple):
    ok: bool
    ell: int
    witness: Optional[SyndeticityWitness] = None
    counterexample: Optional[Word] = None


def prepend_reach(family: FiniteFamily, ell: int) -> FiniteFamily:
    """{sigma : tau.sigma in family for some tau with |tau| <= ell}, horizon N - ell."""
    return _over_prefixes(family, ell, every=False)


def _head_blocks(
    family: FiniteFamily, heads: Sequence[tuple[int, Iterable[int]]], n2: int, every: bool
) -> Iterator[int]:
    """For m = 0..n2 in turn, the AND (``every``) or OR of the heads'
    blocks of length-m extensions, a mask over A^m.

    ``heads`` holds (length, lex values) pairs, one per head length, and
    every length + n2 <= N.  A head's length-m extensions are the run of
    k^m bits at its value's place in the band of length + m.  The AND
    stops once it is empty, and a caller may stop at any m.
    """
    k, mask = family.k, family.mask
    offs = _offsets(k, family.N)
    for m in range(n2 + 1):
        width = k**m
        full = (1 << width) - 1
        acc = full if every else 0
        for length, values in heads:
            band = (mask >> offs[length + m]) & ((1 << (width * k**length)) - 1)
            if every:
                for v in values:
                    acc &= band >> (v * width)
                    if not acc:
                        break
                if not acc:
                    break
            else:
                for v in values:
                    acc |= band >> (v * width)
        yield acc & full


def _prefixes(k: int, ell: int) -> list[tuple[int, range]]:
    """Every tau in A^{<=ell} as ``_head_blocks`` heads."""
    return [(j, range(k**j)) for j in range(ell + 1)]


def _over_prefixes(family: FiniteFamily, ell: int, every: bool) -> FiniteFamily:
    """The AND (``every``) or OR, over every tau in A^{<=ell}, of
    {sigma : tau.sigma in family}, at horizon N - ell."""
    if ell < 0:
        raise IndexOutOfRange(f"ell must be >= 0, got {ell}")
    if ell > family.N:
        raise HorizonExceeded(f"ell {ell} beyond horizon {family.N}")
    n2 = family.N - ell
    return _stack(family.k, n2, _head_blocks(family, _prefixes(family.k, ell), n2, every))


def _stack(k: int, n: int, bands: Iterable[int]) -> FiniteFamily:
    """The family at horizon n whose length-m band is the m-th of ``bands``."""
    mask = 0
    for band, start in zip(bands, _offsets(k, n)):
        mask |= band << start
    return FiniteFamily(k, n, mask)


def is_syndetic(
    family: FiniteFamily, ell: int, want_witness: bool = False
) -> SyndeticCheck:
    """Every sigma in A^{<= N-ell} must reach the family by prepending <= ell symbols."""
    reach = prepend_reach(family, ell)
    full = FiniteFamily.full(family.k, family.N - ell)
    if reach.mask != full.mask:
        # lowest missing rank is the lex-least failing sigma
        low = full.mask & ~reach.mask
        r = (low & -low).bit_length() - 1
        return SyndeticCheck(False, ell, counterexample=reach.unrank(r))
    witness = None
    if want_witness:
        translators = []
        taus = list(letter_words(family.k, ell))
        for sigma in letter_words(family.k, family.N - ell):
            for tau in taus:
                if tau.concat(sigma) in family:
                    translators.append((sigma, tau))
                    break
        witness = SyndeticityWitness(ell, tuple(translators))
    return SyndeticCheck(True, ell, witness=witness)


class ThickWitness(NamedTuple):
    anchors: tuple[tuple[int, Word], ...]  # (ell, sigma) with A^{<=ell}.sigma inside


class ThickCheck(NamedTuple):
    ok: bool
    ell_max: int
    witness: Optional[ThickWitness] = None
    failing_ell: Optional[int] = None


def is_thick(family: FiniteFamily, ell_max: int) -> ThickCheck:
    """Find, for each ell <= ell_max, the lex-least anchor sigma with A^{<=ell}.sigma inside.

    The anchors of length m are the bits of ``thick_shrink``'s length-m
    band, so the lowest bit at the smallest m is the lex-least anchor;
    the bands are built one length at a time, up to the first nonempty.
    """
    k = family.k
    offs = _offsets(k, family.N)
    anchors = []
    for ell in range(ell_max + 1):
        for m, acc in enumerate(_head_blocks(family, _prefixes(k, ell), family.N - ell, every=True)):
            if acc:
                anchors.append((ell, family.unrank(offs[m] + (acc & -acc).bit_length() - 1)))
                break
        else:
            return ThickCheck(False, ell_max, failing_ell=ell)
    return ThickCheck(True, ell_max, witness=ThickWitness(tuple(anchors)))


def glued_inclusion(
    heads: Iterable[Word], residue: FiniteFamily, p: FiniteFamily
) -> tuple[bool, int, int, Optional[Word]]:
    """Check that head.sigma lies in p for every head and every sigma in residue.

    Returns ``(ok, checked, skipped, first failure)``.  A glued word
    longer than p.N is skipped rather than checked; each count is a
    popcount of the residue's band of one length.  The first failure is
    the failing glued word met first when heads are taken in order and
    sigmas in rank order, that is, the lex-least failing word under the
    first failing head, rebuilt from the lowest missing bit.
    """
    if residue.k != p.k:
        raise HorizonExceeded("residue and part have different alphabets")
    bands = [(m, b, b.bit_count()) for m in range(residue.N + 1) if (b := residue.band(m))]
    checked = skipped = 0
    first = None
    for head in heads:
        if head.k != p.k:
            raise HorizonExceeded("head and part have different alphabets")
        room = p.N - len(head)
        for m, band, count in bands:
            if m > room:
                skipped += count
                continue
            checked += count
            if first is None:
                missing = band & ~p.extract_after_prefix(head, m)
                if missing:
                    low = (missing & -missing).bit_length() - 1
                    first = head.concat(residue.unrank(_offsets(p.k, residue.N)[m] + low))
    return first is None, checked, skipped, first


def thick_shrink(family: FiniteFamily, ell: int) -> FiniteFamily:
    """{sigma in family : A^{<=ell}.sigma inside family}, at horizon N - ell."""
    return _over_prefixes(family, ell, every=True)


# ---------------------------------------------------------------------------
# piecewise syndeticity


class PwSyndeticDecomposition(Frozen):
    """P = syndetic & thick, carried with its syndeticity bound ell."""

    __slots__ = ("syndetic", "thick", "ell")

    def __init__(self, syndetic: FiniteFamily, thick: FiniteFamily, ell: int):
        if (syndetic.k, syndetic.N) != (thick.k, thick.N):
            raise HorizonExceeded("decomposition parts on different horizons")
        object.__setattr__(self, "syndetic", syndetic)
        object.__setattr__(self, "thick", thick)
        object.__setattr__(self, "ell", ell)

    @property
    def part(self) -> FiniteFamily:
        return self.syndetic & self.thick

    @property
    def k(self) -> int:
        return self.syndetic.k

    @property
    def N(self) -> int:
        return self.syndetic.N


class PwSplitResult(NamedTuple):
    side: str  # 'B' or 'C'
    chosen: FiniteFamily
    decomposition: PwSyndeticDecomposition
    identity_b: bool  # B == S~ & T
    identity_c: bool  # C == T~ & S
    syndetic_check: SyndeticCheck
    thick_evidence: Optional[ThickCheck] = None


def split_sides(dec: PwSyndeticDecomposition, b: FiniteFamily, c: FiniteFamily) -> tuple[FiniteFamily, FiniteFamily]:
    """S~ = B | (S - P) and T~ = complement(S~), for B, C a partition of P = S & T.

    Raises ``NotAPartition`` unless B, C partition P.  Then S~ & T == B
    and T~ & S == C, since B lies in P, which lies in S and in T
    (CHANGES.md has the proof).  ``pw_split`` and the split verifier
    compute the sides here, as ``brown_select`` and the brown verifier
    do with ``check_partition`` and ``brown_side``.
    """
    p = dec.part
    if (b | c).mask != p.mask or (b & c).mask:
        raise NotAPartition("B, C do not partition P")
    s_tilde = b | (dec.syndetic - p)
    return s_tilde, s_tilde.complement()


def check_partition(p: FiniteFamily, parts: Sequence[FiniteFamily]) -> None:
    """Raise ``NotAPartition`` unless ``parts`` are pairwise disjoint with union p."""
    union = FiniteFamily.empty(p.k, p.N)
    for q in parts:
        if (union & q).mask:
            raise NotAPartition("parts overlap")
        union = union | q
    if union.mask != p.mask:
        raise NotAPartition("parts do not cover P")


def brown_side(dec: PwSyndeticDecomposition, parts: Sequence[FiniteFamily], indices: Iterable[int]) -> FiniteFamily:
    """(A^{<=N} - T) | the union of ``parts[j]`` for j in ``indices``.

    Over a subset B of a partition of P it is the new syndetic side S';
    over B less an index i, its complement T' = T - the other parts of B
    is the new thick side, and S' & T' == parts[i]: the parts are
    disjoint and lie in P, which lies in T (CHANGES.md has the proof).
    """
    fam = dec.thick.complement()
    for j in indices:
        fam = fam | parts[j]
    return fam


def pw_split(dec: PwSyndeticDecomposition, b: FiniteFamily, c: FiniteFamily) -> PwSplitResult:
    """Two-way split of a piecewise syndetic set, with the proof's set identities.

    S~ and T~ are ``split_sides``; the identities B == S~ & T and
    C == T~ & S, which the partition implies, are reported as exact
    bitset equalities.  The side is decided by testing syndeticity of S~
    at the decomposition's ell, and the losing side comes with thickness
    evidence for T~.
    """
    s_tilde, t_tilde = split_sides(dec, b, c)
    s, t = dec.syndetic, dec.thick
    id_b = (s_tilde & t).mask == b.mask
    id_c = (t_tilde & s).mask == c.mask
    check = is_syndetic(s_tilde, dec.ell)
    if check.ok:
        return PwSplitResult("B", b, PwSyndeticDecomposition(s_tilde, t, dec.ell), id_b, id_c, check)
    evidence = is_thick(t_tilde, dec.ell)
    return PwSplitResult("C", c, PwSyndeticDecomposition(s, t_tilde, dec.ell), id_b, id_c, check, evidence)


class BrownSelection(NamedTuple):
    index: int
    subset: tuple[int, ...]
    decomposition: PwSyndeticDecomposition
    syndetic_check: SyndeticCheck
    removal_check: SyndeticCheck
    thick_evidence: ThickCheck


def brown_select(dec: PwSyndeticDecomposition, parts: Sequence[FiniteFamily]) -> BrownSelection:
    """Pick a part of a partition of P that stays piecewise syndetic.

    Searches subsets B of part indices by increasing cardinality (then
    lex) for the first one making (A^{<=N} - T) | union(C_j, j in B)
    syndetic at the decomposition's ell; that B is inclusion-minimal
    because syndeticity is monotone.  Some i in B whose removal breaks
    syndeticity is returned together with the rebuilt decomposition for
    C_i, ready for independent re-verification.
    """
    kparts = len(parts)
    if kparts == 0:
        raise NotAPartition("no parts supplied")
    if kparts > 8:
        raise NotAPartition("subset search capped at 8 parts")
    check_partition(dec.part, parts)

    def syndetic_of(indices: Iterable[int]) -> tuple[FiniteFamily, SyndeticCheck]:
        fam = brown_side(dec, parts, indices)
        return fam, is_syndetic(fam, dec.ell)

    from itertools import combinations

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
        rest, removal = syndetic_of(j for j in combo if j != i)
        if not removal.ok:
            t_prime = rest.complement()  # S' & T' is parts[i], by the partition
            new_dec = PwSyndeticDecomposition(s_prime, t_prime, dec.ell)
            evidence = is_thick(t_prime, dec.ell)
            return BrownSelection(i, combo, new_dec, check, removal, evidence)
    # a minimal subset of two or more parts has every index critical, so
    # here it is one part and the complement of T alone is syndetic
    raise NoPartSelected(f"complement of T is already syndetic at ell={dec.ell}: no part is critical")


# ---------------------------------------------------------------------------
# horizon-level piecewise syndeticity certification


class PwCertification(NamedTuple):
    decomposition: PwSyndeticDecomposition
    syndetic_check: SyndeticCheck
    thick_check: ThickCheck


def pws_certify(
    family: FiniteFamily, ell: int, m_bound: int
) -> Optional[PwCertification]:
    """Certify a family F as piecewise syndetic at the reduced horizon N - ell.

    The reach E = prepend_reach(F, ell) must be thick to m_bound, or None
    is returned.  With F' = F cut to N - ell, the canonical decomposition
    S = F' | ~E, T = E needs no check.  S & T = F', as the empty tau puts
    F' inside E.  S is ell-syndetic, ``SyndeticCheck(True, ell)``, when
    2 ell <= N: a sigma outside E lies in ~E, and a sigma in E has a tau
    with |tau| <= ell and tau.sigma in F, of length <= N - ell, so in F'.
    When 2 ell > N that check has no range, and a thick reach raises
    ``HorizonExceeded``, as ``is_syndetic`` does.
    """
    reach = prepend_reach(family, ell)
    thick_check = is_thick(reach, m_bound)
    if not thick_check.ok:
        return None
    if 2 * ell > family.N:
        raise HorizonExceeded(f"ell {ell} beyond horizon {family.N - ell}")
    s_fam = family.restrict(family.N - ell) | reach.complement()
    dec = PwSyndeticDecomposition(s_fam, reach, ell)
    return PwCertification(dec, SyndeticCheck(True, ell), thick_check)


def random_piecewise_syndetic(
    rng: random.Random,
    k: int,
    n: int,
    ell: int,
    m_bound: int,
    p_syndetic: float = 0.7,
    p_thick: float = 0.6,
) -> PwSyndeticDecomposition:
    """Random decomposition whose parts verifiably pass their checks."""
    total = _offsets(k, n)[n + 1]
    s_mask = 0
    for r in range(total):
        if rng.random() < p_syndetic:
            s_mask |= 1 << r
    s_fam = FiniteFamily(k, n, s_mask)
    # repair failures until ell-syndetic
    taus = list(letter_words(k, ell))
    while True:
        check = is_syndetic(s_fam, ell)
        if check.ok:
            break
        sigma = check.counterexample
        tau = taus[rng.randrange(len(taus))]
        s_fam = s_fam | FiniteFamily.from_words(k, n, [tau.concat(sigma)])
    t_fam = FiniteFamily.empty(k, n)
    for m in range(m_bound + 1):
        # the r-th letter word of length <= n - m is the one of rank r
        sigma = unrank(k, n - m, 0, rng.randrange(_offsets(k, n - m)[n - m + 1]))
        block = [
            tau.concat(sigma)
            for tau in letter_words(k, m)
        ]
        t_fam = t_fam | FiniteFamily.from_words(k, n, block)
    extra_mask = 0
    for r in range(total):
        if rng.random() < p_thick:
            extra_mask |= 1 << r
    t_fam = t_fam | FiniteFamily(k, n, extra_mask)
    return PwSyndeticDecomposition(s_fam, t_fam, ell)
