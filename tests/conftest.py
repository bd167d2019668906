import random

import pytest

from varword.words import Word


def random_prefix_valid(rng: random.Random, k: int, length: int) -> Word:
    """Uniform-ish random prefix-valid word: letters or any introduced
    variable, with a fresh variable allowed at every step."""
    syms = []
    introduced = 0
    for _ in range(length):
        c = rng.randrange(k + introduced + 1)
        if c < k:
            syms.append(c)
        else:
            j = c - k
            if j == introduced:
                introduced += 1
            syms.append(k + j)
    return Word(k, tuple(syms))


def random_letters(rng: random.Random, k: int, length: int) -> Word:
    return Word(k, tuple(rng.randrange(k) for _ in range(length)))


def all_graphs(n: int):
    """Every graph on the vertices 0 .. n-1, by the bits of its edge set."""
    from itertools import combinations

    from varword.henson import GraphSpec

    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield GraphSpec.from_pairs(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# object-level references for the rank-space checks in ``largeness``


def glued_inclusion_ref(heads, residue, p):
    """``largeness.glued_inclusion`` by gluing each head to each residue
    word as a new Word and testing membership word by word."""
    ok, checked, skipped, first = True, 0, 0, None
    sigmas = list(residue.words())
    for head in heads:
        for sigma in sigmas:
            glued = head.concat(sigma)
            if len(glued) > p.N:
                skipped += 1
                continue
            checked += 1
            if glued not in p:
                ok = False
                if first is None:
                    first = glued
    return ok, checked, skipped, first


def is_thick_ref(family, ell_max):
    """``largeness.is_thick`` by walking anchors in length-then-lex order."""
    from varword.largeness import ThickCheck, ThickWitness
    from varword.words import letter_words

    anchors = []
    for ell in range(ell_max + 1):
        taus = list(letter_words(family.k, ell))
        found = next(
            (
                sigma
                for sigma in letter_words(family.k, family.N - ell)
                if all(tau.concat(sigma) in family for tau in taus)
            ),
            None,
        )
        if found is None:
            return ThickCheck(False, ell_max, failing_ell=ell)
        anchors.append((ell, found))
    return ThickCheck(True, ell_max, witness=ThickWitness(tuple(anchors)))
