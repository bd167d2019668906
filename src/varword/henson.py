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

import math
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (
    DomainTooLarge,
    InputError,
    NotFoundWithinHorizon,
    NotTriangleFree,
    TriangleFound,
    VarwordError,
)
from .words import (
    MAX_UNIVERSE,
    Word,
    dimension,
    first_occurrence,
    format_word,
    parse_word,
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
    "parse_chi",
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
    return list(var_words(1, n_horizon, dim=1))


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

    def rows(self) -> list[str]:
        """The adjacency rows: row i has ``1`` at j for each edge (i, j), else ``0``."""
        return ["".join("1" if self.adj(i, j) else "0" for j in range(self.n)) for i in range(self.n)]

    def dump(self) -> str:
        return "\n".join([str(self.n), *self.rows()]) + "\n"

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
        in the file form.  A negative n leaves no vertex and is refused at
        the header."""
        if n < 0:
            raise InputError(f"graph with n={n} has an empty domain: n < 0", filename, 1, 1)
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


def parse_chi(text: str, n: int, filename: str = "<chi>") -> Callable[[tuple[Word, ...]], int]:
    """A coloring of n-vertex embeddings read from ``w1 .. wn color`` lines.

    The words are over {0, x0}; blank lines are skipped.  The result
    raises ``InputError`` naming the file for an embedding with no line.
    A negative n leaves no embedding to color and is refused.
    """
    if n < 0:
        raise InputError(f"coloring of {n}-vertex embeddings has an empty domain: n < 0", filename, 1, 1)
    table = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != n + 1:
            raise InputError(f"expected {n} words and a color", filename, i, 1)
        try:
            words = tuple(parse_word(t, 1) for t in parts[:n])
        except VarwordError as exc:
            raise InputError(str(exc), filename, i, 1) from None
        try:
            table[words] = int(parts[n])
        except ValueError:
            raise InputError(f"bad color {parts[n]!r}", filename, i, line.rindex(parts[n]) + 1) from None

    def chi(emb):
        try:
            return table[emb]
        except KeyError:
            missing = " ".join(format_word(w) for w in emb)
            raise InputError(f"no color for the embedding {missing}", filename) from None

    return chi


class PhiEmbedding(NamedTuple):
    words: tuple[Word, ...]
    in_vertex_set: tuple[bool, ...]  # contains the variable, so officially a vertex


def phi_embed(g: GraphSpec) -> PhiEmbedding:
    """Direct image: vertex i becomes the length-i word marking its earlier neighbours.

    Edges and non-edges are preserved under the verbatim relation
    (re-checked with the verifier's ``check_embedding``); the image of a
    vertex with no earlier neighbour contains no variable and is flagged
    as outside the official vertex set.
    """
    from .certificates import check_embedding

    if not g.is_triangle_free():
        raise NotTriangleFree("input graph contains a triangle")
    words = tuple(Word(1, tuple(VAR if g.adj(i, j) else 0 for j in range(i))) for i in range(g.n))
    check_embedding(g, words, None)
    return PhiEmbedding(words, tuple(w.has_variables() for w in words))


def greedy_embed(g: GraphSpec, n_horizon: int) -> tuple[Word, ...]:
    """Strictly-inside embedding with image lengths increasing.

    Vertex i gets the lex-least vertex word longer than every earlier
    image that realizes exactly the required edges; the image is
    re-checked with the verifier's ``check_embedding`` before returning.
    """
    from .certificates import check_embedding

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
    check_embedding(g, images, n_horizon)
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
    """The t with env[t] == member, or None.

    Such a t holds one value per variable first seen before |member|,
    and env's cut for it, the first x_|t| (or the end of env), must fall
    at |member|; t is read off member at those first occurrences, and
    the substitution decides.
    """
    firsts = [first_occurrence(env, j) for j in range(dimension(env))]
    m = sum(f < len(member) for f in firsts)
    cut = firsts[m] if m < len(firsts) else len(env)
    if cut != len(member):
        return None
    t = Word(env.k, tuple(member.symbols[f] for f in firsts[:m]))
    return t if substitute(env, t) == member else None


def _envelope_prefixes(mem: list[Word], longest: int):
    """The walk's ``keep`` for envelopes of ``mem`` over one letter.

    ``_cover(env, s)`` needs env's letters before |s| to be s's symbols,
    each variable there to take one value, and position |s| to be the
    end of env or a first occurrence.  A prefix that breaks this for
    some member covers no word it extends, so its subtree is skipped;
    ``_cover`` still checks every word the walk yields.
    """

    def fits(i, p):
        # may position i hold the letter 0 (p is None), or the variable
        # first placed at p, for every member?
        return all(len(s) < i or (len(s) > i and s[i] == (0 if p is None else s[p])) for s in mem)

    letter = [fits(i, None) for i in range(longest + 1)]
    repeat = [[fits(i, p) for p in range(i)] for i in range(longest + 1)]

    def keep(syms, i):
        s = syms[i]
        if s < VAR:
            return letter[i]
        p = syms.index(s)  # the variable's first occurrence; a new one fits every member
        return p == i or repeat[i][p]

    return keep


def minimal_envelope(members: Iterable[Word]) -> Envelope:
    """Fewest-variable word from which every member arises by substitution.

    Exhaustive over candidates ordered by variable count, then length,
    then lex; the first hit is minimal by construction.  Candidate
    lengths run from the longest member's length, since a shorter word
    has no cut there, to one more, which suffices because a cut past
    the longest member never helps and appending beyond it only
    introduces variables.  Each length's walk skips the prefixes that
    contradict a member (``_envelope_prefixes``), so the first hit is
    the one the full walk finds.  The hit is re-checked with the
    verifier's ``check_envelope`` before returning.
    """
    from .certificates import check_envelope

    mem = sorted(set(members), key=Word.key)
    if not mem:
        raise InputError("empty member set")
    bound = 2 ** len(mem) + len(mem) - 1
    longest = max(len(s) for s in mem)
    keep = _envelope_prefixes(mem, longest)
    for d in range(longest + 2):
        for env in var_words(1, longest + 1, dim=d, min_len=longest, keep=keep):
            assign = []
            for s in mem:
                t = _cover(env, s)
                if t is None:
                    break
                assign.append((s, t))
            else:
                check_envelope(mem, env, d, assign)
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
) -> ProfileColoring:
    """Profile of a coloring of copies of g along substitution patterns.

    For each pattern u of the derived dimension 2^n + n - 1, the
    profile records, slot by slot over a canonical enumeration of
    (word set T, vertex ordering) pairs, the chi-value of the induced
    embedding when u[T] is an induced copy of g (None otherwise).  Two
    colorings agreeing on the image region of u get equal profiles.

    The slots and the patterns are counted before either is built, and
    more than ``MAX_UNIVERSE`` slots or (pattern, slot) pairs, each pair
    weighed by the N + 1 symbols a pattern may hold, raise
    ``DomainTooLarge``: with no vertex there is one slot, and the table
    is the patterns alone.
    """
    from .colorings import _domain_size

    d = 2**g.n + g.n - 1
    # the slots are the ordered g.n-tuples of distinct words over {0, x0} of
    # length <= d; past the bound's bit length one vertex alone has too many
    slot_count = math.perm(2 ** (min(d, MAX_UNIVERSE.bit_length()) + 1) - 1, g.n)
    cap = MAX_UNIVERSE // (slot_count * max(n_horizon + 1, 1))
    if not cap or _domain_size(1, n_horizon, d, cap) > cap:
        raise DomainTooLarge(
            f"profile of a {g.n}-vertex graph at horizon {n_horizon} spans more than "
            f"{MAX_UNIVERSE} slots or (pattern, slot) pairs"
        )
    if isinstance(chi, Mapping):
        chi_fn = chi.__getitem__
    else:
        chi_fn = chi
    pool = [Word(1, syms) for length in range(d + 1) for syms in product((0, VAR), repeat=length)]
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
