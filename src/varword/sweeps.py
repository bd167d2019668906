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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
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


@dataclass(frozen=True)
class WordTable:
    k: int
    syms: np.ndarray  # (M, width) int64, -1 padded
    lens: np.ndarray  # (M,)
    focc: np.ndarray  # (M, width + 2) first occurrence of x_j, -1 if absent

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


@dataclass(frozen=True)
class AssocSweepResult:
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


@dataclass(frozen=True)
class RoundTripResult:
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


def _vertex_arrays(n_horizon: int):
    verts = enum_vertices(n_horizon)
    bits = np.zeros(len(verts), np.int64)
    lens = np.zeros(len(verts), np.int64)
    for i, v in enumerate(verts):
        lens[i] = len(v)
        acc = 0
        for p, s in enumerate(v.symbols):
            if s == 1:
                acc |= 1 << p
        bits[i] = acc
    return verts, bits, lens


def henson_adjacency(n_horizon: int) -> tuple[list, np.ndarray]:
    verts, bits, lens = _vertex_arrays(n_horizon)
    return verts, _kernels.henson_adjacency_numpy(bits, lens)


@dataclass(frozen=True)
class HensonScanReport:
    horizon: int
    vertices: int
    edges: int


def henson_triangle_report(n_horizon: int) -> HensonScanReport:
    """Common-neighbour scan along every edge of the coded graph."""
    verts, adj = henson_adjacency(n_horizon)
    i, j, u = _kernels.henson_triangle_numpy(adj)
    if i >= 0:
        raise TriangleFound(
            f"triangle {format_word(verts[i])}, {format_word(verts[j])}, {format_word(verts[u])}",
            triple=(verts[i], verts[j], verts[u]),
        )
    return HensonScanReport(n_horizon, len(verts), int(np.count_nonzero(np.triu(adj))))
