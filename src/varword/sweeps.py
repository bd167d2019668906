"""Exhaustive suites built on the kernels.

These are the heavy, fully deterministic batteries: substitution
associativity over all prefix pairs, generator/tree round trips,
line-with-letter feasibility over every coloring of a small cube, and
the coded-graph scans.  Each battery is one kernel call over its whole
range, in one thread, so its result is the same bytes on every run.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from ._frozen import Frozen
from .words import _symbol_tuples, var_words
from .henson import enum_vertices
from .errors import TriangleFound
from .words import format_word

__all__ = [
    "WordTable",
    "build_prefix_table",
    "AssocSweepResult",
    "assoc_exhaustive",
    "RoundTripResult",
    "tree_roundtrip_exhaustive",
    "line_letter_certs",
    "coloring_sweep",
    "henson_adjacency",
    "henson_triangle_report",
]


class WordTable(Frozen):
    """Prefix-valid words as padded arrays: symbols (M, width) int64 padded
    with -1, lengths (M,), and first occurrences (M, width + 2) of each
    x_j, -1 if absent."""

    __slots__ = ("k", "syms", "lens", "focc")

    def __init__(self, k: int, syms: np.ndarray, lens: np.ndarray, focc: np.ndarray):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "syms", syms)
        object.__setattr__(self, "lens", lens)
        object.__setattr__(self, "focc", focc)

    def __len__(self):
        return len(self.lens)


def build_prefix_table(k: int, max_len: int) -> WordTable:
    """Every prefix-valid word of length <= max_len, in (length, lex) order,
    filled one length at a time from the walk's symbol tuples."""
    blocks = [_symbol_rows(k, length) for length in range(max_len + 1)]
    m = sum(len(b) for b in blocks)
    width = max(max_len, 1)
    syms = np.full((m, width), -1, np.int64)
    lens = np.zeros(m, np.int64)
    focc = np.full((m, width + 2), -1, np.int64)
    lo = 0
    for length, block in enumerate(blocks):
        rows = slice(lo, lo + len(block))
        syms[rows, :length] = block
        lens[rows] = length
        for j in range(length):  # a word of this length has at most this many variables
            hit = block == k + j
            focc[rows, j] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
        lo += len(block)
    return WordTable(k, syms, lens, focc)


def _symbol_rows(k: int, length: int) -> np.ndarray:
    """The prefix-valid words of one length as rows, in lex order."""
    if length == 0:
        return np.zeros((1, 0), np.int64)  # the empty word
    flat = chain.from_iterable(_symbol_tuples(k, length, False, 0, length))
    return np.fromiter(flat, np.int64).reshape(-1, length)


class AssocSweepResult(NamedTuple):
    words: int
    pairs: int
    checked: int
    failures: int
    first_bad: tuple[int, int, int, int]


def assoc_exhaustive(
    k: int, max_len: int, workers: int = 1, table: Optional[WordTable] = None
) -> AssocSweepResult:
    """w[v[u]] == compose(w, v)[u] over every prefix pair up to max_len.

    On the flat table both sides read the same symbols wherever their
    cut points agree, so this checks the cut points; the values of
    ``substitute``/``compose`` rest on the object-level tests.
    """
    # ``workers`` is ignored (one thread); kept only for perfbench's workers probe
    t = table or build_prefix_table(k, max_len)
    m = len(t)
    checked, failures, *first_bad = _kernels.assoc_sweep(t.syms, t.lens, t.focc, k, 0, m, max_len)
    return AssocSweepResult(m, m * m, checked, failures, tuple(first_bad))


class RoundTripResult(NamedTuple):
    generators: int
    elements: int
    mismatches: int
    bad_code: int


def tree_roundtrip_exhaustive(
    k: int, max_len: int, workers: int = 1
) -> RoundTripResult:
    """generator -> tree -> generator identity over all ordered generators."""
    # ``workers`` is ignored (one thread); kept only for perfbench's workers probe
    if k < 2:
        raise ValueError("kernel roundtrip requires k >= 2 (unary trees are not rigid)")
    return RoundTripResult(*_kernels.tree_roundtrip_sweep(k, max_len))


# ---------------------------------------------------------------------------
# coloring sweeps


def line_letter_certs(k: int, n_horizon: int) -> tuple[np.ndarray, list]:
    """Rank triples S(0) | S(1).a for every generator/letter pair in order.

    Ranks index the length-then-lex order of letter words up to the
    horizon, matching the bit layout of coloring masks.
    """
    from .largeness import FiniteFamily
    from .words import extend, letter_words, substitute

    fam = FiniteFamily.empty(k, n_horizon)
    empty, *letters = letter_words(k, 1)  # the patterns of S(0), then of S(1)
    rows = []
    meta = []
    for g in var_words(k, n_horizon - 1, dim=1, ordered=True, min_len=1):
        root = substitute(g, empty)
        level1 = [substitute(g, b) for b in letters]
        for a in range(k):
            checked = [root, *(extend(w, (a,)) for w in level1)]
            rows.append([fam.rank(w) for w in checked])
            meta.append((g, a))
    return np.asarray(rows, np.int64), meta


def coloring_sweep(
    k: int, n_horizon: int, workers: int = 1
) -> np.ndarray:
    """found/not-found bitmap over every 2-coloring of A^{<=n_horizon}."""
    # ``workers`` is ignored (one thread); kept only for perfbench's workers probe
    certs, _ = line_letter_certs(k, n_horizon)
    from .largeness import FiniteFamily

    n_bits = FiniteFamily.empty(k, n_horizon).universe_size
    out = np.zeros(1 << n_bits, np.uint8)
    _kernels.line_letter_coloring_sweep(certs, n_bits, out)
    return out


# ---------------------------------------------------------------------------
# coded-graph scans


def _vertex_arrays(n_horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(bits, lens) of ``enum_vertices(n_horizon)``, computed without Words.

    The vertex of rank r within length L spells r + 1 in binary, most
    significant digit first, and bit p of ``bits`` is position p; so
    bits is r + 1 with its L digits reversed.
    """
    sizes = [(1 << length) - 1 for length in range(1, n_horizon + 1)]
    lens = np.repeat(np.arange(1, n_horizon + 1, dtype=np.int64), sizes)
    value = np.concatenate([np.arange(1, size + 1) for size in sizes]) if sizes else np.zeros(0, np.int64)
    bits = np.zeros(len(lens), np.int64)
    for p in range(n_horizon):
        bits |= ((value >> np.maximum(lens - 1 - p, 0)) & (lens > p)) << p
    return bits, lens


def henson_adjacency(n_horizon: int) -> tuple[list, np.ndarray]:
    """The vertices and the dense 0/1 adjacency matrix of the coded graph."""
    bits, lens = _vertex_arrays(n_horizon)
    packed = _kernels.henson_adjacency_packed(bits, lens)
    adj = np.unpackbits(packed.view(np.uint8), axis=1, count=len(bits), bitorder="little")
    return enum_vertices(n_horizon), adj


class HensonScanReport(NamedTuple):
    horizon: int
    vertices: int
    edges: int


def henson_triangle_report(n_horizon: int) -> HensonScanReport:
    """Common-neighbour scan along every edge of the coded graph."""
    bits, lens = _vertex_arrays(n_horizon)
    packed = _kernels.henson_adjacency_packed(bits, lens)
    i, j, u, edges = _kernels.henson_triangle_packed(packed)
    if i >= 0:
        verts = enum_vertices(n_horizon)
        triple = (verts[i], verts[j], verts[u])
        raise TriangleFound("triangle " + ", ".join(map(format_word, triple)), triple=triple)
    return HensonScanReport(n_horizon, len(bits), edges)
