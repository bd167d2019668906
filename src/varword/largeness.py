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
* a piecewise syndetic set is carried together with its decomposition
  ``P = S & T`` and the syndeticity bound ell; ``pws_certify`` rebuilds
  such a decomposition for a raw family from the thickness of its
  prepend-reachability set, at the reduced horizon N - ell.

Both notions are monotone in the horizon and literally true there, so
every lemma check in this module is an exact statement about finite
sets, not an approximation that may drift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DomainTooLarge,
    HorizonExceeded,
    IndexOutOfRange,
    NoPartSelected,
    NotAPartition,
)
from .words import Word, format_word, letter_words, parse_word

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
    "density",
    "density_profile",
    "density_split",
    "concat_family",
    "is_syndetic",
    "is_thick",
    "pw_split",
    "brown_select",
    "thick_shrink",
    "prepend_reach",
    "pws_certify",
    "random_piecewise_syndetic",
]


@lru_cache(maxsize=None)
def _offsets(k: int, n: int) -> tuple[int, ...]:
    """offsets[L] = rank of the first word of length L; offsets[N+1] = total."""
    out = [0]
    for length in range(n + 1):
        out.append(out[-1] + k**length)
    return tuple(out)


MAX_UNIVERSE = 1 << 22  # words of A^{<=N} a family read from a file or a certificate may span


def check_family_size(k: int, n: int) -> None:
    """Reject a family header (k, N) read from outside before any mask is built.

    A family's mask holds one bit per word of A^{<=N} and its offset
    table one entry per length, so either past ``MAX_UNIVERSE`` raises
    ``DomainTooLarge``; a negative k raises ``IndexOutOfRange``.
    """
    if k < 0:
        raise IndexOutOfRange(f"alphabet size must be >= 0, got {k}")
    size = n + 1
    if k >= 2:
        # at least 2**(n+1) - 1 words: lengths past the bound's bit length need no power
        size = sum(k**length for length in range(min(n, MAX_UNIVERSE.bit_length()) + 1))
    if size > MAX_UNIVERSE:
        raise DomainTooLarge(f"family with k={k}, N={n} spans more than {MAX_UNIVERSE} words")


@dataclass(frozen=True)
class FiniteFamily:
    """Subset of A^{<=N} as a bitset keyed by length-then-lex rank."""

    k: int
    N: int
    mask: int = 0

    # -- construction ------------------------------------------------

    @classmethod
    def empty(cls, k: int, n: int) -> "FiniteFamily":
        return cls(k, n, 0)

    @classmethod
    def full(cls, k: int, n: int) -> "FiniteFamily":
        return cls(k, n, (1 << _offsets(k, n)[n + 1]) - 1)

    @classmethod
    def from_words(cls, k: int, n: int, words: Iterable[Word]) -> "FiniteFamily":
        mask = 0
        for w in words:
            mask |= 1 << _rank(k, n, w)
        return cls(k, n, mask)

    # -- ranks -------------------------------------------------------

    def rank(self, w: Word) -> int:
        return _rank(self.k, self.N, w)

    def unrank(self, r: int) -> Word:
        return _unrank(self.k, self.N, r)

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
        for length, v in _members(self.k, self.N, self.mask):
            yield _word_of(self.k, length, v)

    # -- text codec ----------------------------------------------------

    def texts(self) -> list[str]:
        """``format_word`` of each member in rank order.

        For k = 2 a member's text is its rank's value in binary, one
        digit per letter, so no Word is built.
        """
        if self.k != 2:
            return [format_word(w) for w in self.words()]
        return [
            format(v, f"0{length}b") if length else "-"
            for length, v in _members(2, self.N, self.mask)
        ]

    @classmethod
    def from_texts(cls, k: int, n: int, texts: Sequence) -> "FiniteFamily":
        """``from_words(k, n, [parse_word(t, k) for t in texts])``, errors included.

        For 2 <= k <= 10, when every text is ``-`` or at most n digits
        below k, each rank is ``offsets[len(t)] + int(t, k)``; any other
        text sends the whole list through ``parse_word``.
        """
        if 2 <= k <= 10 and n >= 0:
            offs = _offsets(k, n)
            letters = _DIGITS[:k]
            mask = 0
            for t in texts:
                if t == "-":
                    mask |= 1
                elif type(t) is str and 0 < len(t) <= n and not t.strip(letters):
                    mask |= 1 << (offs[len(t)] + int(t, k))
                else:
                    break
            else:
                return cls(k, n, mask)
        return cls.from_words(k, n, [parse_word(t, k) for t in texts])

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
        base = offs[lp + m] + _value(self.k, prefix) * width
        return (self.mask >> base) & ((1 << width) - 1)

    def append(self, sigma: Word) -> tuple["FiniteFamily", int]:
        """Family . sigma = {tau sigma}; members pushed past N are dropped."""
        ks = self.k ** len(sigma)
        vs = _value(self.k, sigma)
        offs = _offsets(self.k, self.N)
        mask = 0
        dropped = 0
        for length in range(self.N + 1):
            band = self.band(length)
            if not band:
                continue
            if length + len(sigma) > self.N:
                dropped += band.bit_count()
                continue
            base = offs[length + len(sigma)]
            v = 0
            while band:
                if band & 1:
                    mask |= 1 << (base + v * ks + vs)
                band >>= 1
                v += 1
        return FiniteFamily(self.k, self.N, mask), dropped


def _value(k: int, w: Word) -> int:
    v = 0
    for s in w.symbols:
        if s >= k:
            raise HorizonExceeded(f"{format_word(w)} contains a variable")
        v = v * k + s
    return v


def _rank(k: int, n: int, w: Word) -> int:
    if len(w) > n:
        raise HorizonExceeded(f"|{format_word(w)}| > horizon {n}")
    return _offsets(k, n)[len(w)] + _value(k, w)


def _unrank(k: int, n: int, r: int) -> Word:
    offs = _offsets(k, n)
    length = 0
    while offs[length + 1] <= r:
        length += 1
    return _word_of(k, length, r - offs[length])


def _members(k: int, n: int, mask: int) -> Iterator[tuple[int, int]]:
    """(length, lex value) of each set bit of mask, in rank order."""
    offs = _offsets(k, n)
    bits = bin(mask)[:1:-1]  # bits[r] is bit r
    length = 0
    r = bits.find("1")
    while r >= 0:
        while offs[length + 1] <= r:
            length += 1
        yield length, r - offs[length]
        r = bits.find("1", r + 1)


def _word_of(k: int, length: int, v: int) -> Word:
    syms = [0] * length
    for i in range(length - 1, -1, -1):
        v, syms[i] = divmod(v, k)
    return Word(k, tuple(syms))


_DIGITS = "0123456789"


# ---------------------------------------------------------------------------
# density


def density(family: FiniteFamily, r: int) -> Fraction:
    """Exact |D cap A^r| / k^r."""
    if r > family.N:
        raise HorizonExceeded(f"length {r} beyond horizon {family.N}")
    return Fraction(family.band(r).bit_count(), family.k**r)


@dataclass(frozen=True)
class DensityProfile:
    densities: tuple[Fraction, ...]
    epsilon: Fraction
    witness_lengths: tuple[int, ...]


def density_profile(family: FiniteFamily, epsilon: Fraction) -> DensityProfile:
    dens = tuple(density(family, r) for r in range(family.N + 1))
    wits = tuple(r for r, d in enumerate(dens) if d > epsilon)
    return DensityProfile(dens, Fraction(epsilon), wits)


@dataclass(frozen=True)
class DensitySplitReport:
    epsilon: Fraction
    b_lengths: tuple[int, ...]  # lengths where D exceeds epsilon
    c_lengths: tuple[int, ...]  # lengths where E exceeds epsilon/2
    e_witness: tuple[int, ...]
    f_witness: tuple[int, ...]
    side: str  # 'E' or 'F'


def density_split(
    d: FiniteFamily, e: FiniteFamily, f: FiniteFamily, epsilon: Fraction
) -> DensitySplitReport:
    """Case split of the density partition lemma, checked exactly.

    For every length in B \\ C the inequality dens(F) > epsilon/2 is
    asserted with exact rationals; the side keeping the majority of
    witness lengths is reported.
    """
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
                raise AssertionError(
                    f"split inequality fails at length {r}: dens(F)={df}"
                )
    e_wit = tuple(r for r in b if r in cset)
    f_wit = tuple(r for r in b if r not in cset)
    side = "E" if len(e_wit) >= len(f_wit) else "F"
    return DensitySplitReport(epsilon, b, c, e_wit, f_wit, side)


def concat_family(family: FiniteFamily, sigma: Word) -> tuple[FiniteFamily, int]:
    """Append sigma to every member; returns the image and the dropped count."""
    return family.append(sigma)


# ---------------------------------------------------------------------------
# syndeticity / thickness


@dataclass(frozen=True)
class SyndeticityWitness:
    ell: int
    translators: tuple[tuple[Word, Word], ...]  # (sigma, tau) with tau.sigma in S


@dataclass(frozen=True)
class SyndeticCheck:
    ok: bool
    ell: int
    witness: Optional[SyndeticityWitness] = None
    counterexample: Optional[Word] = None


def prepend_reach(family: FiniteFamily, ell: int) -> FiniteFamily:
    """{sigma : tau.sigma in family for some tau with |tau| <= ell}, horizon N - ell."""
    if ell > family.N:
        raise HorizonExceeded(f"ell {ell} beyond horizon {family.N}")
    n2 = family.N - ell
    offs = _offsets(family.k, n2)
    mask = 0
    for tau in letter_words(family.k, ell):
        for m in range(n2 + 1):
            block = family.extract_after_prefix(tau, m)
            mask |= block << offs[m]
    return FiniteFamily(family.k, n2, mask)


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


@dataclass(frozen=True)
class ThickWitness:
    anchors: tuple[tuple[int, Word], ...]  # (ell, sigma) with A^{<=ell}.sigma inside


@dataclass(frozen=True)
class ThickCheck:
    ok: bool
    ell_max: int
    witness: Optional[ThickWitness] = None
    failing_ell: Optional[int] = None


def is_thick(family: FiniteFamily, ell_max: int) -> ThickCheck:
    """Find, for each ell <= ell_max, the lex-least anchor sigma with A^{<=ell}.sigma inside."""
    anchors = []
    for ell in range(ell_max + 1):
        found = None
        taus = list(letter_words(family.k, ell))
        for sigma in letter_words(family.k, family.N - ell):
            ok = True
            for tau in taus:
                if tau.concat(sigma) not in family:
                    ok = False
                    break
            if ok:
                found = sigma
                break
        if found is None:
            return ThickCheck(False, ell_max, failing_ell=ell)
        anchors.append((ell, found))
    return ThickCheck(True, ell_max, witness=ThickWitness(tuple(anchors)))


def thick_shrink(family: FiniteFamily, ell: int) -> FiniteFamily:
    """{sigma in family : A^{<=ell}.sigma inside family}, at horizon N - ell."""
    if ell > family.N:
        raise HorizonExceeded(f"ell {ell} beyond horizon {family.N}")
    n2 = family.N - ell
    offs = _offsets(family.k, n2)
    mask = family.restrict(n2).mask
    for tau in letter_words(family.k, ell):
        acc = 0
        for m in range(n2 + 1):
            acc |= family.extract_after_prefix(tau, m) << offs[m]
        mask &= acc
    return FiniteFamily(family.k, n2, mask)


# ---------------------------------------------------------------------------
# piecewise syndeticity


@dataclass(frozen=True)
class PwSyndeticDecomposition:
    """P = syndetic & thick, carried with its syndeticity bound ell."""

    syndetic: FiniteFamily
    thick: FiniteFamily
    ell: int

    def __post_init__(self):
        if (self.syndetic.k, self.syndetic.N) != (self.thick.k, self.thick.N):
            raise HorizonExceeded("decomposition parts on different horizons")

    @property
    def part(self) -> FiniteFamily:
        return self.syndetic & self.thick

    @property
    def k(self) -> int:
        return self.syndetic.k

    @property
    def N(self) -> int:
        return self.syndetic.N


@dataclass(frozen=True)
class PwSplitResult:
    side: str  # 'B' or 'C'
    chosen: FiniteFamily
    decomposition: PwSyndeticDecomposition
    identity_b: bool  # B == S~ & T
    identity_c: bool  # C == T~ & S
    syndetic_check: SyndeticCheck
    thick_evidence: Optional[ThickCheck] = None


def pw_split(
    dec: PwSyndeticDecomposition, b: FiniteFamily, c: FiniteFamily
) -> PwSplitResult:
    """Two-way split of a piecewise syndetic set, with the proof's set identities.

    S~ = B | (S - P) and T~ = complement(S~); the identities B == S~ & T
    and C == T~ & S are verified as exact bitset equalities, then the
    side is decided by testing syndeticity of S~ at the decomposition's
    ell.  The losing side comes with thickness evidence for T~.
    """
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
        return PwSplitResult(
            "B", b, PwSyndeticDecomposition(s_tilde, t, dec.ell), id_b, id_c, check
        )
    evidence = is_thick(t_tilde, dec.ell)
    return PwSplitResult(
        "C",
        c,
        PwSyndeticDecomposition(s, t_tilde, dec.ell),
        id_b,
        id_c,
        check,
        thick_evidence=evidence,
    )


@dataclass(frozen=True)
class BrownSelection:
    index: int
    subset: tuple[int, ...]
    decomposition: PwSyndeticDecomposition
    syndetic_check: SyndeticCheck
    removal_check: SyndeticCheck
    thick_evidence: ThickCheck


def brown_select(
    dec: PwSyndeticDecomposition, parts: Sequence[FiniteFamily]
) -> BrownSelection:
    """Pick a part of a partition of P that stays piecewise syndetic.

    Searches subsets B of part indices by increasing cardinality (then
    lex) for the first one making (A^{<=N} - T) | union(C_j, j in B)
    syndetic at the decomposition's ell; that B is inclusion-minimal
    because syndeticity is monotone.  Some i in B whose removal breaks
    syndeticity is returned together with the rebuilt decomposition for
    C_i, ready for independent re-verification.
    """
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

    def syndetic_of(indices: Iterable[int]) -> tuple[FiniteFamily, SyndeticCheck]:
        fam = base
        for j in indices:
            fam = fam | parts[j]
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
        rest = tuple(j for j in combo if j != i)
        _, removal = syndetic_of(rest)
        if not removal.ok:
            t_prime = dec.thick
            for j in rest:
                t_prime = t_prime - parts[j]
            new_dec = PwSyndeticDecomposition(s_prime, t_prime, dec.ell)
            if new_dec.part.mask != parts[i].mask:
                raise AssertionError("selected part identity failed")
            evidence = is_thick(t_prime, dec.ell)
            return BrownSelection(i, combo, new_dec, check, removal, evidence)
    raise AssertionError("minimal subset had no critical index")


# ---------------------------------------------------------------------------
# horizon-level piecewise syndeticity certification


@dataclass(frozen=True)
class PwCertification:
    decomposition: PwSyndeticDecomposition
    syndetic_check: SyndeticCheck
    thick_check: ThickCheck


def pws_certify(
    family: FiniteFamily, ell: int, m_bound: int
) -> Optional[PwCertification]:
    """Certify a family as piecewise syndetic at the reduced horizon N - ell.

    The prepend-reachability set E = reach(family, ell) must be thick
    to m_bound.  The canonical decomposition is then S = family | ~E,
    T = E:  S is ell-syndetic by construction, and S & T is exactly the
    family restricted to the reduced horizon.
    """
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
        sigma = _unrank(k, n - m, rng.randrange(_offsets(k, n - m)[n - m + 1]))
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
