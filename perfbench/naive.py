"""The benchmark's own reference implementations and input generators.

The references check the program's outputs.  Words are plain tuples of
symbol codes: letters ``0..k-1`` and ``x_j`` as ``k + j``.  Nothing here
imports varword, so a check never trusts the code it checks.
"""

from __future__ import annotations

import itertools


def words_upto(k: int, n: int):
    """Letter words of length <= n in length-then-lex order (the rank order)."""
    for length in range(n + 1):
        yield from itertools.product(range(k), repeat=length)


def dimension(w, k: int) -> int:
    return max((s - k + 1 for s in w if s >= k), default=0)


def subst(w, k: int, u, omega: bool = True):
    """w[u] with the cut before the first x_{len(u)}; None where undefined."""
    m = len(u)
    cut = next((i for i, s in enumerate(w) if s == k + m), None)
    if cut is None:
        if omega or dimension(w, k) != m:
            return None
        cut = len(w)
    out = []
    for s in w[:cut]:
        if s < k:
            out.append(s)
        elif s - k < m:
            out.append(u[s - k])
        else:
            return None
    return tuple(out)


def compose(w, k: int, v):
    out = []
    for s in w:
        if s < k:
            out.append(s)
        elif s - k < len(v):
            out.append(v[s - k])
        else:
            break
    return tuple(out)


def line_triples(k: int, n: int):
    """Every line-with-letter candidate at horizon n, in the search's order.

    A candidate is a one-variable generator g with 1 <= |g| <= n - 1 and a
    letter a; its checked words are S(0) = g cut before x_0 and g[b].a
    for each letter b.
    """
    out = []
    for length in range(1, n):
        for g in itertools.product(range(k + 1), repeat=length):
            if k not in g:
                continue
            head = g[: g.index(k)]
            for a in range(k):
                words = [head] + [
                    tuple(b if s == k else s for s in g) + (a,) for b in range(k)
                ]
                out.append((g, a, words))
    return out


def first_line(coloring: dict, k: int, n: int):
    """(generator, letter, color) of the first monochromatic candidate, or None."""
    for g, a, words in line_triples(k, n):
        colors = {coloring[w] for w in words}
        if len(colors) == 1:
            return g, a, colors.pop()
    return None


def defeating_coloring(rng, k: int, n: int) -> dict:
    """A random 2-coloring of A^{<=n} with no monochromatic candidate.

    Backtracks over words in rank order, trying colors in random order;
    a candidate is checked as soon as its last word is colored.
    """
    order = list(words_upto(k, n))
    rank = {w: i for i, w in enumerate(order)}
    closing = [[] for _ in order]
    for _, _, words in line_triples(k, n):
        closing[max(rank[w] for w in words)].append([rank[w] for w in words])
    colors = [0] * len(order)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        for c in rng.sample((0, 1), 2):
            colors[i] = c
            if all(len({colors[r] for r in t}) > 1 for t in closing[i]) and extend(i + 1):
                return True
        return False

    if not extend(0):
        raise ValueError(f"every 2-coloring at k={k}, N={n} admits a line with letter")
    return {w: colors[i] for i, w in enumerate(order)}


def edge(v, w) -> bool:
    """Coded-graph adjacency of unary vertex words (symbol 1 is x_0)."""
    if len(v) == len(w):
        return False
    if len(v) > len(w):
        v, w = w, v
    return w[len(v)] == 1 and not any(a == b == 1 for a, b in zip(v, w))


def triangle_free(n: int, edges) -> bool:
    return not any(
        {(a, b), (b, c), (a, c)} <= edges for a, b, c in itertools.combinations(range(n), 3)
    )


def random_prefix_valid(rng, k: int, length: int, ordered: bool = False):
    """Random prefix-valid word: each symbol a letter, an introduced variable
    or the next new one; `ordered` reuses only the latest variable."""
    syms, introduced = [], 0
    for _ in range(length):
        c = rng.randrange(k + introduced + 1)
        if c >= k:
            j = c - k
            if ordered and j + 1 < introduced:
                j = introduced - 1
            if j == introduced:
                introduced += 1
            c = k + j
        syms.append(c)
    return tuple(syms)


def random_triangle_free(rng):
    """(n, edges) of a random triangle-free graph on 2 to 5 vertices."""
    n = rng.randrange(2, 6)
    while True:
        edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45}
        if triangle_free(n, edges):
            return n, edges
