"""Instantiation trees of ordered variable words.

The tree of an ordered n-variable word ``w`` is the set of all
instantiations ``{w[u] : u in A^{<=n}}``.  Level j collects the
instantiations by u of length j; all of them share the same length
(the position of the first occurrence of x_j), so levels are the
length strata of the element set.  A line is the one-dimensional case.

``generator_from_tree`` inverts the construction: after the level
counts are checked, the generator is read off the top level column by
column, and the tree it generates, compared with the given set, decides
whether it is returned.  For alphabets of size at least two the
generator is unique; for the unary alphabet the lex-least generator is
returned (variables only at the cut columns).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from ._frozen import Frozen
from .errors import (
    ElementNotInTree,
    LevelOutOfRange,
    NotATree,
    NotOrdered,
)
from .words import (
    Word,
    dimension,
    extend,
    first_occurrence,
    format_word,
    is_var_word,
    letter_words,
    substitute,
)

__all__ = [
    "OVWTree",
    "tree_from_generator",
    "tree_levels",
    "generator_from_tree",
    "level",
    "levels",
    "size",
    "CanonicalIso",
    "canonical_iso",
]


class OVWTree(Frozen):
    """The instantiation tree of ``generator``; no slots, so that
    ``level_lengths`` can cache itself in the instance dict."""

    _fields = ("generator", "elements")

    def __init__(self, generator: Word, elements: tuple[Word, ...]):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "elements", elements)  # sorted by (length, lex)

    @property
    def k(self) -> int:
        return self.generator.k

    @property
    def dimension(self) -> int:
        return dimension(self.generator)

    @cached_property
    def level_lengths(self) -> tuple[int, ...]:
        cuts = [first_occurrence(self.generator, j) for j in range(self.dimension)]
        cuts.append(len(self.generator))
        return tuple(cuts)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)


def tree_from_generator(w: Word) -> OVWTree:
    """Enumerate {w[u] : |u| <= dim(w)} for an ordered variable word."""
    return OVWTree(w, tuple(e for lvl in tree_levels(w, len(w)) for e in lvl))


def tree_levels(w: Word, max_len: int) -> Iterator[tuple[Word, ...]]:
    """Levels 0, 1, ... of w's tree whose words have length <= max_len.

    w must be an ordered variable word (``NotOrdered`` otherwise), and
    that is checked before any level is built.  Level lengths increase
    strictly, and w[u] < w[u'] lexicographically whenever u < u' (they
    first differ at the first occurrence of the first differing
    variable), so the levels come in length-then-lex order.  No level
    longer than max_len is instantiated.
    """
    n = dimension(w)
    if not is_var_word(w, n, ordered=True):
        raise NotOrdered(f"{format_word(w)} is not an ordered variable word")
    return _levels(w, n, max_len)


def _levels(w: Word, n: int, max_len: int) -> Iterator[tuple[Word, ...]]:
    for j in range(n + 1):
        if (first_occurrence(w, j) if j < n else len(w)) > max_len:
            return
        yield tuple(substitute(w, u) for u in letter_words(w.k, j, min_len=j))


def level(tree: OVWTree, j: int) -> tuple[Word, ...]:
    if j < 0 or j > tree.dimension:
        raise LevelOutOfRange(f"level {j} of a dimension-{tree.dimension} tree")
    want = tree.level_lengths[j]
    return tuple(e for e in tree.elements if len(e) == want)


def levels(tree: OVWTree) -> tuple[int, ...]:
    """The set of levels: the element lengths, ascending."""
    return tuple(sorted({len(e) for e in tree.elements}))


def size(tree: OVWTree) -> int:
    """Max element length; coincides with the generator length."""
    return max(len(e) for e in tree.elements)


def generator_from_tree(elements: Iterable[Word]) -> Word:
    """The ordered generator whose instantiation tree is ``elements``.

    Level j of a tree holds k^j words of one length, the first
    occurrence of x_j; the counts are checked first, so that nothing
    larger than the input is built.  The generator is then read off the
    top level: the root gives the letters before the first cut, the
    column at level j's length is x_j, a column constant over the top
    level is that letter, and a column past level j's length that varies
    is x_j (an ordered word holds no other variable there).  Its tree,
    compared with the input, decides: NotATree with a diagnostic element
    pair when they differ.  For alphabets of size at least two the
    generator is unique; over one letter the lex-least one is returned.
    """
    elems = sorted(set(elements), key=Word.key)
    if not elems:
        raise NotATree("empty set")
    k = elems[0].k
    for e in elems:
        if any(s >= k for s in e.symbols):  # over k letters: the columns read below hold letters
            raise NotATree(f"{format_word(e)} contains a variable", pair=(e, e))

    by_len: dict[int, list[Word]] = {}
    for e in elems:
        by_len.setdefault(len(e), []).append(e)
    lens = sorted(by_len)
    for j, length in enumerate(lens):
        if len(by_len[length]) != k**j:
            raise NotATree(
                f"level {j} has {len(by_len[length])} elements, expected {k**j}",
                pair=(by_len[length][0], by_len[length][-1]),
            )

    cuts = {c: k + j for j, c in enumerate(lens[:-1])}
    top = by_len[lens[-1]]
    tail = []  # the root, elems[0], holds the letters before the first cut
    for c in range(lens[0], lens[-1]):
        if c in cuts:
            x = cuts[c]  # the variable of the zone that starts here
        values = {e.symbols[c] for e in top}
        tail.append(values.pop() if len(values) == 1 and c not in cuts else x)

    g = extend(elems[0], tail)
    extra = tree_from_generator(g).element_set() ^ frozenset(elems)
    if extra:
        some = min(extra, key=Word.key)
        raise NotATree(f"verification failed at {format_word(some)}", pair=(some, some))
    return g


class CanonicalIso(NamedTuple):
    """Bijection between tree elements and their instantiation patterns."""

    tree: OVWTree
    to_pattern: Mapping[Word, Word]
    from_pattern: Mapping[Word, Word]

    def __call__(self, element: Word) -> Word:
        try:
            return self.to_pattern[element]
        except KeyError:
            raise ElementNotInTree(format_word(element)) from None

    def pullback(self, coloring: Union[Callable[[Word], int], Mapping[Word, int]]):
        """Pull a coloring of the tree back to a coloring of patterns."""
        if isinstance(coloring, Mapping):
            fn = coloring.__getitem__
        else:
            fn = coloring
        return {u: fn(e) for u, e in self.from_pattern.items()}


def canonical_iso(tree: OVWTree) -> CanonicalIso:
    to_pattern = {}
    from_pattern = {}
    for j in range(tree.dimension + 1):
        for u in letter_words(tree.k, j, min_len=j):
            e = substitute(tree.generator, u)
            to_pattern[e] = u
            from_pattern[u] = e
    return CanonicalIso(tree, to_pattern, from_pattern)

