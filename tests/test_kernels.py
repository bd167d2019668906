"""Cross-validation of the array kernels against object-level code.

Every sweep has two independent routes: the flat-array kernel and the
Word-object implementation built from the core operations.  Small
instances are checked for exact agreement, and each numpy kernel is
compared against its plain-Python loop (``*_py``), the reference it
must match bit for bit.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from varword import _kernels, benchmark
from varword.colorings import Coloring
from varword.errors import CutPointMissing, NotFoundWithinHorizon, TriangleFound
from varword.henson import assert_triangle_free, edge, enum_vertices
from varword.largeness import FiniteFamily
from varword.search import search_line_with_letter
from varword.sweeps import (
    WordTable,
    _vertex_arrays,
    assoc_exhaustive,
    build_prefix_table,
    coloring_sweep,
    henson_adjacency,
    henson_triangle_report,
    line_letter_certs,
    tree_roundtrip_exhaustive,
)
from varword.trees import generator_from_tree, tree_from_generator
from varword.words import (
    Word,
    compose,
    letter_words,
    prefix_valid_words,
    substitute,
    var_words,
)

K = 2


def object_level_assoc_count(max_len):
    words = list(prefix_valid_words(K, max_len))
    checked = 0
    for w in words:
        for v in words:
            z = compose(w, v)
            for m in range(max_len + 1):
                for u in letter_words(K, m, min_len=m):
                    try:
                        lhs = substitute(w, substitute(v, u, omega=True), omega=True)
                    except CutPointMissing:
                        lhs = None
                    try:
                        rhs = substitute(z, u, omega=True)
                    except CutPointMissing:
                        rhs = None
                    assert (lhs is None) == (rhs is None)
                    if lhs is not None:
                        assert lhs == rhs
                        checked += 1
    return checked


class TestAssocKernel:
    def test_agrees_with_object_level(self):
        res = assoc_exhaustive(K, 3)
        assert res.failures == 0
        assert res.checked == object_level_assoc_count(3)

    def test_python_variant_agrees(self):
        t = build_prefix_table(K, 3)
        a = _kernels.assoc_sweep(t.syms, t.lens, t.focc, K, 0, len(t), 3)
        b = _kernels.assoc_sweep_py(t.syms, t.lens, t.focc, K, 0, len(t), 3)
        assert a == b

    def test_sharding_invariance(self):
        r1 = assoc_exhaustive(K, 4, workers=1)
        r8 = assoc_exhaustive(K, 4, workers=8)
        assert r1 == r8

    def test_python_variant_agrees_on_planted_faults(self, rng):
        # failure counts and the first failure must agree too, not only
        # the clean counts; the faults hit syms (letters and variables,
        # in or out of range) and focc (any position, or absent)
        t = build_prefix_table(K, 3)
        width = t.syms.shape[1]
        faulty = 0
        for _ in range(40):
            syms, focc = t.syms.copy(), t.focc.copy()
            for _ in range(rng.randrange(1, 4)):
                r, c = rng.randrange(len(t)), rng.randrange(width)
                if rng.random() < 0.5:
                    syms[r, c] = rng.choice([-1, 0, 1, K, K + 1, K + 2, K + width + 1])
                else:
                    focc[r, c] = rng.randrange(-1, width)
            lo = rng.randrange(len(t))
            hi = rng.randrange(lo + 1, len(t) + 1)
            a = _kernels.assoc_sweep(syms, t.lens, focc, K, lo, hi, 3)
            b = _kernels.assoc_sweep_py(syms, t.lens, focc, K, lo, hi, 3)
            assert a == b
            bad = WordTable(K, syms, t.lens, focc)
            assert assoc_exhaustive(K, 3, workers=1, table=bad) == assoc_exhaustive(
                K, 3, workers=3, table=bad
            )
            faulty += b[1] > 0
        assert faulty >= 10


class TestRoundtripKernel:
    def test_agrees_with_library(self):
        res = tree_roundtrip_exhaustive(K, 6)
        assert res.mismatches == 0
        count = 0
        for w in var_words(K, 6, ordered=True):
            assert generator_from_tree(tree_from_generator(w).elements) == w
            count += 1
        assert res.generators == count

    def test_python_variant_agrees(self):
        a = _kernels.tree_roundtrip_sweep(K, 5, 0, 5)
        b = _kernels.tree_roundtrip_sweep_py(K, 5, 0, 5)
        assert a == b

    def test_rejects_unary(self):
        with pytest.raises(ValueError):
            tree_roundtrip_exhaustive(1, 4)


def naive_line_letter_exists(bits, n_hor):
    """Object-level verifier: does any line-with-letter certificate exist?"""
    fam = FiniteFamily.empty(K, n_hor)
    f = {w: (bits >> fam.rank(w)) & 1 for w in letter_words(K, n_hor)}
    for g in var_words(K, n_hor - 1, dim=1, ordered=True, min_len=1):
        tree = tree_from_generator(g)
        s0 = tree.elements[0]
        for a in range(K):
            colors = {f[s0]}
            for w in tree.elements[1:]:
                colors.add(f[Word(K, w.symbols + (a,))])
            if len(colors) == 1:
                return True
    return False


class TestColoringSweep:
    def test_matches_naive_verifier_exhaustively(self):
        n_hor = 2
        found = coloring_sweep(K, n_hor)
        for bits in range(len(found)):
            assert bool(found[bits]) == naive_line_letter_exists(bits, n_hor)

    def test_matches_search_kernel_on_sample(self):
        n_hor = 3
        found = coloring_sweep(K, n_hor)
        fam = FiniteFamily.empty(K, n_hor)
        for bits in range(0, len(found), 1021):
            table = {w: (bits >> fam.rank(w)) & 1 for w in letter_words(K, n_hor)}
            c = Coloring(K, n_hor, 0, 2, table)
            try:
                search_line_with_letter(c)
                got = True
            except NotFoundWithinHorizon:
                got = False
            assert got == bool(found[bits])

    def test_worker_invariance(self):
        a = coloring_sweep(K, 3, workers=1)
        b = coloring_sweep(K, 3, workers=8)
        assert (a == b).all()

    def test_python_variant_agrees(self, rng, monkeypatch):
        # chunks of 3 lanes (192 colorings), so that the ranges, whose
        # bounds are mostly not multiples of 64, cross chunk boundaries
        monkeypatch.setattr(_kernels, "_CHUNK", 192)
        for n_hor in (2, 3):
            certs, _ = line_letter_certs(K, n_hor)
            n_bits = FiniteFamily.empty(K, n_hor).universe_size
            total = 1 << n_bits
            ranges = [(0, total)] + [
                (lo, rng.randrange(lo, min(lo + 1500, total) + 1))
                for lo in (rng.randrange(total) for _ in range(30))
            ]
            for lo, hi in ranges:
                out_a = np.full(hi - lo, 2, np.uint8)
                out_b = np.full(hi - lo, 3, np.uint8)
                _kernels.line_letter_coloring_sweep(certs, n_bits, lo, hi, out_a)
                _kernels.line_letter_coloring_sweep_py(certs, n_bits, lo, hi, out_b)
                assert (out_a == out_b).all(), (n_hor, lo, hi)


def _vertex_arrays_from_words(verts):
    bits = np.array([sum(1 << p for p, s in enumerate(v.symbols) if s == 1) for v in verts], np.int64)
    lens = np.array([len(v) for v in verts], np.int64)
    return bits, lens


def _packed_with_edges(adj):
    ei, ej = np.nonzero(np.triu(adj))
    return _kernels.pack_rows(adj), ei.astype(np.int32), ej.astype(np.int32)


class TestHensonKernels:
    def test_adjacency_matches_edge_function(self):
        verts, adj = henson_adjacency(6)
        assert adj.shape == (len(verts), len(verts))
        for i in range(0, len(verts), 7):
            for j in range(0, len(verts), 5):
                assert bool(adj[i, j]) == edge(verts[i], verts[j])

    def test_vertex_arrays_match_enum(self):
        for n in range(9):
            verts = enum_vertices(n)
            bits, lens = _vertex_arrays(n)
            want_bits, want_lens = _vertex_arrays_from_words(verts)
            assert (bits == want_bits).all() and (lens == want_lens).all(), n

    def test_adjacency_numpy_vs_loops(self, monkeypatch):
        for n in range(1, 9):
            bits, lens = _vertex_arrays_from_words(enum_vertices(n))
            out = np.zeros((len(bits), len(bits)), np.uint8)
            _kernels.henson_adjacency_loops_py(bits, lens, out)
            want_i, want_j = np.nonzero(np.triu(out))
            # small row blocks: one row per block, or blocks that end mid-length
            for row_block in (1, 700, 1 << 18):
                monkeypatch.setattr(_kernels, "_ROW_BLOCK", row_block)
                packed, ei, ej = _kernels.henson_adjacency_packed(bits, lens)
                unpacked = np.unpackbits(packed.view(np.uint8), axis=1, count=len(bits), bitorder="little")
                assert (unpacked == out).all(), (n, row_block)
                assert (packed == _kernels.pack_rows(out)).all(), (n, row_block)
                assert (ei == want_i).all() and (ej == want_j).all(), (n, row_block)

    def test_triangle_scan_both_paths_clean(self):
        verts, adj = henson_adjacency(7)
        packed, ei, ej = _packed_with_edges(adj)
        a = _kernels.henson_triangle_scan_py(packed, ei, ej)
        b = _kernels.henson_triangle_packed(packed, ei, ej)
        assert a[0] == b[0] == -1

    def test_triangle_scan_catches_planted_triangle(self):
        adj = np.zeros((4, 4), np.uint8)
        for i, j in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            adj[i, j] = adj[j, i] = 1
        packed, ei, ej = _packed_with_edges(adj)
        i, j, u = _kernels.henson_triangle_scan_py(packed, ei, ej)
        assert sorted((i, j, u)) == [0, 1, 2]
        assert _kernels.henson_triangle_packed(packed, ei, ej) == (i, j, u)

    def test_triangle_scan_random_graphs(self, rng, monkeypatch):
        # chunks of 21 to 64 edges, so that the first hit is often past the first chunk
        monkeypatch.setattr(_kernels, "_EDGE_CHUNK", 64)
        outcomes = set()
        for t in range(240):
            n = rng.randrange(1, 140)
            adj = np.zeros((n, n), np.uint8)
            side = [rng.randrange(2) for _ in range(n)]
            p = rng.choice([0.02, 0.1, 0.3])
            for i in range(n):
                for j in range(i + 1, n):
                    # kinds 0 and 1 are bipartite, so triangle-free until one is planted
                    if (t % 3 == 2 or side[i] != side[j]) and rng.random() < p:
                        adj[i, j] = adj[j, i] = 1
            if t % 3 == 1 and n >= 3:
                for i, j in combinations(rng.sample(range(n), 3), 2):
                    adj[i, j] = adj[j, i] = 1
            packed, ei, ej = _packed_with_edges(adj)
            want = tuple(map(int, _kernels.henson_triangle_scan_py(packed, ei, ej)))
            assert _kernels.henson_triangle_packed(packed, ei, ej) == want, t
            outcomes.add(want[0] >= 0)
        assert outcomes == {True, False}

    def test_report(self):
        rep = henson_triangle_report(7)
        assert rep.vertices == 2**8 - 7 - 2

    def test_report_witness_matches_object_scan(self, monkeypatch):
        # without the disjointness condition the relation has triangles;
        # the report must name the one assert_triangle_free names
        def passing_only(v, w):
            if len(v) == len(w):
                return False
            v, w = sorted((v, w), key=len)
            return w.symbols[len(v)] == 1

        def mutant_adjacency(bits, lens):
            verts = enum_vertices(int(lens.max()))
            adj = np.array([[passing_only(v, w) for w in verts] for v in verts], np.uint8)
            return _packed_with_edges(adj)

        with pytest.raises(TriangleFound) as want:
            assert_triangle_free(5, passing_only)
        monkeypatch.setattr(_kernels, "henson_adjacency_packed", mutant_adjacency)
        with pytest.raises(TriangleFound) as got:
            henson_triangle_report(5)
        assert str(got.value) == str(want.value)
        assert got.value.triple == want.value.triple

    def test_report_memory_bounded(self):
        # a dense int64 adjacency of these 2,036 vertices alone is 33 MB;
        # the packed rows are 0.5 MB and every temporary is bounded
        henson_triangle_report(3)  # warm any lazy numpy state first
        tracemalloc.start()
        try:
            rep = henson_triangle_report(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.edges == 77_309
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_benchmark_runs_at_tiny_sizes(capsys):
    # each row asserts the numpy kernel's output equal to its loop's
    argv = ["--assoc-len", "2", "--tree-len", "3", "--henson-horizon", "4", "--sweep-horizon", "2"]
    assert benchmark.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
