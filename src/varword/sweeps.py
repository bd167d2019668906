"""Exhaustive suites built on the kernels.

These are the heavy, fully deterministic batteries: substitution
associativity over all prefix pairs, generator/tree round trips,
line-with-letter feasibility over every coloring of a small cube, and
the coded-graph scans.  Worker sharding splits contiguous index ranges
and merges order-independent aggregates, so results are byte-identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from ._frozen import Frozen
from .words import Word, prefix_valid_words, var_words
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

    def _astuple(self) -> tuple:
        return (self.k, self.syms, self.lens, self.focc)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())  # arrays are unhashable, as before

    def __repr__(self) -> str:
        return (
            f"WordTable(k={self.k!r}, syms={self.syms!r}, "
            f"lens={self.lens!r}, focc={self.focc!r})"
        )

    def __reduce__(self):
        return WordTable, self._astuple()

    def __len__(self):
        return len(self.lens)


def build_prefix_table(k: int, max_len: int) -> WordTable:
    words = list(prefix_valid_words(k, max_len))
    m = len(words)
    width = max(max_len, 1)
    syms = np.full((m, width), -1, np.int64)
    lens = np.zeros(m, np.int64)
    focc = np.full((m, width + 2), -1, np.int64)
    for i, w in enumerate(words):
        lens[i] = len(w)
        for c, s in enumerate(w.symbols):
            syms[i, c] = s
            j = s - k
            if j >= 0 and focc[i, j] < 0:
                focc[i, j] = c
    return WordTable(k, syms, lens, focc)


def _shard_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    bounds = [total * w // workers for w in range(workers + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


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
    t = table or build_prefix_table(k, max_len)
    m = len(t)

    def run(lo_hi):
        lo, hi = lo_hi
        return _kernels.assoc_sweep(t.syms, t.lens, t.focc, k, lo, hi, max_len)

    if workers <= 1:
        parts = [run((0, m))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, _shard_bounds(m, workers)))
    checked = sum(p[0] for p in parts)
    failures = sum(p[1] for p in parts)
    first_bad = (-1, -1, -1, -1)
    for p in parts:
        if p[2] >= 0:
            first_bad = (p[2], p[3], p[4], p[5])
            break
    return AssocSweepResult(m, m * m, checked, failures, first_bad)


class RoundTripResult(NamedTuple):
    generators: int
    elements: int
    mismatches: int
    bad_code: int


def tree_roundtrip_exhaustive(
    k: int, max_len: int, workers: int = 1
) -> RoundTripResult:
    """generator -> tree -> generator identity over all ordered generators."""
    if k < 2:
        raise ValueError("kernel roundtrip requires k >= 2 (unary trees are not rigid)")

    lengths = list(range(0, max_len + 1))

    def run(length):
        return _kernels.tree_roundtrip_sweep(k, max_len, length, length)

    if workers <= 1:
        parts = [run(length) for length in lengths]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, lengths))
    gens = sum(p[0] for p in parts)
    elems = sum(p[1] for p in parts)
    mism = sum(p[2] for p in parts)
    bad = next((p[3] for p in parts if p[3] >= 0), -1)
    return RoundTripResult(gens, elems, mism, bad)


# ---------------------------------------------------------------------------
# coloring sweeps


def line_letter_certs(k: int, n_horizon: int) -> tuple[np.ndarray, list]:
    """Rank triples S(0) | S(1).a for every generator/letter pair in order.

    Ranks index the length-then-lex order of letter words up to the
    horizon, matching the bit layout of coloring masks.
    """
    from .largeness import FiniteFamily
    from .words import substitute

    fam = FiniteFamily.empty(k, n_horizon)
    rows = []
    meta = []
    for g in var_words(k, n_horizon - 1, dim=1, ordered=True, min_len=1):
        for a in range(k):
            checked = [substitute(g, ())]
            for b in range(k):
                w = substitute(g, (b,))
                checked.append(Word(k, w.symbols + (a,)))
            rows.append([fam.rank(w) for w in checked])
            meta.append((g, a))
    return np.asarray(rows, np.int64), meta


def coloring_sweep(
    k: int, n_horizon: int, workers: int = 1
) -> np.ndarray:
    """found/not-found bitmap over every 2-coloring of A^{<=n_horizon}."""
    certs, _ = line_letter_certs(k, n_horizon)
    from .largeness import FiniteFamily

    n_bits = FiniteFamily.empty(k, n_horizon).universe_size
    total = 1 << n_bits
    out = np.zeros(total, np.uint8)

    def run(lo_hi):
        lo, hi = lo_hi
        _kernels.line_letter_coloring_sweep(certs, n_bits, lo, hi, out[lo:hi])

    if workers <= 1:
        run((0, total))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, _shard_bounds(total, workers)))
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
    packed, _, _ = _kernels.henson_adjacency_packed(bits, lens)
    adj = np.unpackbits(packed.view(np.uint8), axis=1, count=len(bits), bitorder="little")
    return enum_vertices(n_horizon), adj


class HensonScanReport(NamedTuple):
    horizon: int
    vertices: int
    edges: int


def henson_triangle_report(n_horizon: int) -> HensonScanReport:
    """Common-neighbour scan along every edge of the coded graph."""
    bits, lens = _vertex_arrays(n_horizon)
    packed, ei, ej = _kernels.henson_adjacency_packed(bits, lens)
    i, j, u = _kernels.henson_triangle_packed(packed, ei, ej)
    if i >= 0:
        verts = enum_vertices(n_horizon)
        triple = (verts[i], verts[j], verts[u])
        raise TriangleFound("triangle " + ", ".join(map(format_word, triple)), triple=triple)
    return HensonScanReport(n_horizon, len(bits), len(ei))
