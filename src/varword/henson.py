"""The word-coded universal triangle-free graph.

Vertices are the one-variable words over the unary alphabet {0}; with
the variable written as a set bit they are exactly the binary strings
that are not all-zero.  Two words of different lengths are adjacent
when the longer one carries the variable at the shorter one's length
(the passing number) and no position holds the variable in both (the
triangle-freeness condition).  The relation is evaluated verbatim on
any words over {0, x0}, including variable-free ones, which the direct
embedding formula produces for vertices without earlier neighbours;
such images are flagged as sitting outside the official vertex set,
and the strict greedy embedding is the companion that stays inside it.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (
    DomainTooLarge,
    InputError,
    NotFoundWithinHorizon,
    NotTriangleFree,
    TriangleFound,
)
from .words import (
    Word,
    dimension,
    first_occurrence,
    format_word,
    substitute,
    var_words,
)

__all__ = [
    "VAR",
    "MAX_VERTEX_HORIZON",
    "hvertex",
    "enum_vertices",
    "edge",
    "TriangleFreeReport",
    "assert_triangle_free",
    "GraphSpec",
    "PhiEmbedding",
    "phi_embed",
    "greedy_embed",
    "edge_invariance",
    "Envelope",
    "minimal_envelope",
    "ProfileColoring",
    "profile_coloring",
]

VAR = 1  # symbol code of x0 over the unary alphabet

# Largest --horizon whose whole vertex set `henson enum` and `henson
# triangles` build: 2**14 - 15 = 16,369 vertices.  The vertex count
# doubles and the edge count triples per step; the triangle scan at 13
# takes about 3.6 s and 100 MB, at 14 it would take four times that.
MAX_VERTEX_HORIZON = 13


def hvertex(bits: str) -> Word:
    """Vertex from a 0/1 string, 1 marking the variable."""
    return Word(1, tuple(int(c) for c in bits))


def enum_vertices(n_horizon: int) -> list[Word]:
    """All vertices of length <= horizon in length-then-lex order."""
    out = []
    for length in range(1, n_horizon + 1):
        for v in range(1, 1 << length):
            bits = tuple((v >> (length - 1 - i)) & 1 for i in range(length))
            out.append(Word(1, bits))
    return out


def edge(v: Word, w: Word) -> bool:
    """Passing number at the shorter length, no doubly-variable position."""
    if len(v) == len(w):
        return False
    if len(v) > len(w):
        v, w = w, v
    if w.symbols[len(v)] != VAR:
        return False
    return not any(a == VAR and b == VAR for a, b in zip(v.symbols, w.symbols))


class TriangleFreeReport(NamedTuple):
    horizon: int
    vertices: int
    edges: int
    scans: int


def assert_triangle_free(
    n_horizon: int, edge_fn: Callable[[Word, Word], bool] = edge
) -> TriangleFreeReport:
    """Scan every edge (s, t), |s| < |t|, for a common neighbour.

    Raises TriangleFound with the witness triple if one exists, which
    would falsify the implementation rather than the statement.  The
    edge relation is injectable so mutant relations can be probed.
    """
    verts = enum_vertices(n_horizon)
    adj = [set() for _ in verts]
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, j in combinations(range(len(verts)), 2):
        if edge_fn(verts[i], verts[j]):
            adj[i].add(j)
            adj[j].add(i)
            edges.append((i, j))
    scans = 0
    for i, j in edges:
        scans += 1
        common = adj[i] & adj[j]
        if common:
            u = min(common)
            raise TriangleFound(
                "triangle "
                f"{format_word(verts[i])}, {format_word(verts[j])}, {format_word(verts[u])}",
                triple=(verts[i], verts[j], verts[u]),
            )
    return TriangleFreeReport(n_horizon, len(verts), len(edges), scans)


# ---------------------------------------------------------------------------
# finite graphs


class GraphSpec(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]  # normalized i < j

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "GraphSpec":
        norm = set()
        for a, b in pairs:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise InputError(f"bad edge ({a},{b}) for {n} vertices")
            norm.add((min(a, b), max(a, b)))
        return cls(n, frozenset(norm))

    def adj(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def is_triangle_free(self) -> bool:
        """No edge whose two ends share a neighbour."""
        nbrs: dict[int, set[int]] = {}
        for a, b in self.edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        return not any(nbrs[a] & nbrs[b] for a, b in self.edges)

    def dump(self) -> str:
        rows = [str(self.n)]
        for i in range(self.n):
            rows.append("".join("1" if self.adj(i, j) else "0" for j in range(self.n)))
        return "\n".join(rows) + "\n"

    @classmethod
    def parse(cls, text: str, filename: str = "<graph>") -> "GraphSpec":
        lines = text.splitlines()
        if not lines:
            raise InputError("empty graph file", filename, 1, 1)
        try:
            n = int(lines[0].strip())
        except ValueError:
            raise InputError("first line must be the vertex count", filename, 1, 1) from None
        if len(lines) < n + 1:
            raise InputError(f"expected {n} adjacency rows", filename, len(lines), 1)
        return cls.from_rows(n, [line.strip() for line in lines[1 : n + 1]], filename)

    @classmethod
    def from_rows(cls, n: int, rows, filename: str = "<graph>") -> "GraphSpec":
        """The graph of n adjacency rows of n ``0``/``1`` characters each,
        with no self-loop and symmetric; row i is cited as line i + 2, as
        in the file form."""
        if len(rows) != n:
            raise InputError(f"expected {n} adjacency rows", filename, len(rows) + 1, 1)
        pairs = []
        for i, row in enumerate(rows):
            if type(row) is not str or len(row) != n or row.strip("01"):
                raise InputError(f"bad adjacency row for vertex {i}", filename, i + 2, 1)
            for j, c in enumerate(row):
                if c == "1":
                    if j == i:
                        raise InputError("self-loop", filename, i + 2, j + 1)
                    if j > i:
                        pairs.append((i, j))
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c == "0" and rows[j][i] == "1":
                    raise InputError("asymmetric adjacency matrix", filename, i + 2, j + 1)
        return cls(n, frozenset(pairs))

    @classmethod
    def all_graphs(cls, n: int):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield cls.from_pairs(
                n, [p for i, p in enumerate(pairs) if bits >> i & 1]
            )


class PhiEmbedding(NamedTuple):
    words: tuple[Word, ...]
    in_vertex_set: tuple[bool, ...]  # contains the variable, so officially a vertex


def phi_embed(g: GraphSpec) -> PhiEmbedding:
    """Direct image: vertex i becomes the length-i word marking its earlier neighbours.

    Edges and non-edges are preserved under the verbatim relation; the
    image of a vertex with no earlier neighbour contains no variable
    and is flagged as outside the official vertex set.
    """
    if not g.is_triangle_free():
        raise NotTriangleFree("input graph contains a triangle")
    words = []
    for i in range(g.n):
        syms = tuple(VAR if g.adj(i, j) else 0 for j in range(i))
        words.append(Word(1, syms))
    for i, j in combinations(range(g.n), 2):
        if edge(words[i], words[j]) != g.adj(i, j):
            raise AssertionError(f"edge preservation failed at ({i},{j})")
    return PhiEmbedding(
        tuple(words), tuple(w.has_variables() for w in words)
    )


def greedy_embed(g: GraphSpec, n_horizon: int) -> tuple[Word, ...]:
    """Strictly-inside embedding with image lengths increasing.

    Vertex i gets the lex-least vertex word longer than every earlier
    image that realizes exactly the required edges; the induced
    subgraph on the image is re-verified before returning.
    """
    if not g.is_triangle_free():
        raise NotTriangleFree("input graph contains a triangle")
    images: list[Word] = []
    min_len = 1
    for i in range(g.n):
        found = None
        for length in range(min_len, n_horizon + 1):
            for v in range(1, 1 << length):
                bits = tuple((v >> (length - 1 - b)) & 1 for b in range(length))
                cand = Word(1, bits)
                if all(edge(cand, images[j]) == g.adj(i, j) for j in range(i)):
                    found = cand
                    break
            if found:
                break
        if found is None:
            raise NotFoundWithinHorizon(
                f"no image for vertex {i} within length {n_horizon}"
            )
        images.append(found)
        min_len = len(found) + 1
    for i, j in combinations(range(g.n), 2):
        if edge(images[i], images[j]) != g.adj(i, j):
            raise AssertionError("greedy image fails isomorphism re-check")
    return tuple(images)


def edge_invariance(w: Word, u: Word, v: Word) -> bool:
    """Does u ~ v hold exactly when W[u] ~ W[v]?  (CutPointMissing may propagate.)"""
    lhs = edge(u, v)
    rhs = edge(substitute(w, u, omega=True), substitute(w, v, omega=True))
    return lhs == rhs


# ---------------------------------------------------------------------------
# envelopes


class Envelope(NamedTuple):
    word: Word
    assignments: tuple[tuple[Word, Word], ...]  # (member, t) with word[t] == member
    variable_count: int
    bound: int  # 2^|S| + |S| - 1


def _cover(env: Word, member: Word) -> Optional[Word]:
    """Find t with env[t] == member, scanning cut depths ascending."""
    d = dimension(env)
    cuts = [first_occurrence(env, m) for m in range(d)]
    cuts.append(len(env))
    k = env.k
    for m in range(d + 1):
        if cuts[m] != len(member):
            continue
        if m < d and cuts[m] is None:
            continue
        t = [None] * m
        ok = True
        for pos in range(len(member)):
            s = env.symbols[pos]
            if s < k:
                if member.symbols[pos] != s:
                    ok = False
                    break
            else:
                j = s - k
                if t[j] is None:
                    t[j] = member.symbols[pos]
                elif t[j] != member.symbols[pos]:
                    ok = False
                    break
        if not ok:
            continue
        if any(x is None for x in t):
            continue  # some variable has its first occurrence past the cut
        cand = Word(k, tuple(t))
        if substitute(env, cand) == member:
            return cand
    return None


def minimal_envelope(members: Iterable[Word]) -> Envelope:
    """Fewest-variable word from which every member arises by substitution.

    Exhaustive over candidates ordered by variable count, then length,
    then lex; the first hit is minimal by construction.  Candidate
    lengths are capped at max member length + 1, which suffices because
    a cut past the longest member never helps and appending beyond it
    only introduces variables.
    """
    mem = sorted(set(members), key=Word.key)
    if not mem:
        raise InputError("empty member set")
    bound = 2 ** len(mem) + len(mem) - 1
    longest = max(len(s) for s in mem)
    for d in range(longest + 2):
        for env in var_words(1, longest + 1, dim=d):
            assign = []
            for s in mem:
                t = _cover(env, s)
                if t is None:
                    break
                assign.append((s, t))
            else:
                if d > bound:
                    raise AssertionError(
                        f"minimal envelope uses {d} variables, above the bound {bound}"
                    )
                return Envelope(env, tuple(assign), d, bound)
    raise NotFoundWithinHorizon("no envelope within the length cap")


# ---------------------------------------------------------------------------
# profile colorings


class ProfileColoring(NamedTuple):
    dimension: int
    slots: tuple[tuple[tuple[Word, ...], tuple[int, ...]], ...]  # (T, permutation)
    table: Mapping[Word, tuple]
    slot_count: int
    distinct_profiles: int


def profile_coloring(
    chi: Union[Callable[[tuple[Word, ...]], int], Mapping[tuple[Word, ...], int]],
    g: GraphSpec,
    n_horizon: int,
    dim: Optional[int] = None,
) -> ProfileColoring:
    """Profile of a coloring of copies of g along substitution patterns.

    For each pattern u of the derived dimension 2^n + n - 1, the
    profile records, slot by slot over a canonical enumeration of
    (word set T, vertex ordering) pairs, the chi-value of the induced
    embedding when u[T] is an induced copy of g (None otherwise).  Two
    colorings agreeing on the image region of u get equal profiles.
    """
    if g.n > 3:
        raise DomainTooLarge("profile domain explodes beyond 3 vertices")
    if isinstance(chi, Mapping):
        chi_fn = chi.__getitem__
    else:
        chi_fn = chi
    d = 2**g.n + g.n - 1 if dim is None else dim
    pool = []
    for length in range(d + 1):
        for v in range(1 << length):
            bits = tuple((v >> (length - 1 - b)) & 1 for b in range(length))
            pool.append(Word(1, bits))
    slots = []
    for combo in combinations(pool, g.n):
        for perm in permutations(range(g.n)):
            slots.append((combo, perm))
    table = {}
    for u in var_words(1, n_horizon, dim=d):
        profile = []
        for combo, perm in slots:
            images = [substitute(u, combo[perm[v]]) for v in range(g.n)]
            if len(set(images)) != g.n:
                profile.append(None)
                continue
            if all(
                edge(images[a], images[b]) == g.adj(a, b)
                for a, b in combinations(range(g.n), 2)
            ):
                profile.append(chi_fn(tuple(images)))
            else:
                profile.append(None)
        table[u] = tuple(profile)
    return ProfileColoring(
        d,
        tuple(slots),
        table,
        len(slots),
        len(set(table.values())),
    )
