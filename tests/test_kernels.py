"""Cross-validation of the array kernels against object-level code.

Every sweep has two independent routes: the flat-array kernel and the
Word-object implementation built from the core operations.  Small
instances are checked for exact agreement.  Inputs that no Word can
hold (corrupted tables, arbitrary graphs, colorings in blocks of one
lane) are checked against a short oracle written here.
"""

import threading
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from varword import _kernels
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
    first_occurrence,
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


def assoc_oracle(t, syms, focc, max_u_len):
    """(checked, failures, i, j, m, uval) of ``assoc_sweep`` over a whole table,
    u by u: rows read as words up to the table's cut points.

    w[v[u]] is cut at focc[i, focc[j, m]], compose(w, v)[u] at the first
    x_m in the composition; a read of a variable outside the substituted
    word fails every u of its (i, j, m).
    """

    def read(row, cut, u):  # row[:cut] under u, None if it reads past u
        out = []
        for s in row[:cut]:
            if s >= K and s - K >= len(u):
                return None
            out.append(u[s - K] if s >= K else s)
        return out

    checked = failures = 0
    first = None
    rows = [list(r) for r in syms]
    for i, w in enumerate(rows):
        for j, v in enumerate(rows):
            z = []
            for s in w[: t.lens[i]]:
                if s >= K and s - K >= t.lens[j]:
                    break
                z.append(v[s - K] if s >= K else s)
            for m in range(min(max_u_len + 1, focc.shape[1])):
                if (focc[j, : m + 1] < 0).any():
                    break  # v does not reach x_m
                pv = focc[j, m]
                fw = focc[i, pv] if pv < focc.shape[1] else -1
                fz = z.index(K + m) if K + m in z else -1
                if (fw < 0) != (fz < 0):
                    failures += 1
                    first = first or (i, j, m, -1 if fw < 0 else -2)
                    continue
                if fw < 0:
                    continue
                us = list(product(range(K), repeat=m))
                checked += len(us)
                for uval, u in enumerate(us):
                    vu = read(v, pv, u)
                    lhs = None if vu is None else read(w, fw, vu)
                    if lhs is None or lhs != read(z, fz, u):
                        failures += 1
                        first = first or (i, j, m, uval)
    return (checked, failures) + (first or (-1, -1, -1, -1))


class TestAssocKernel:
    def test_agrees_with_object_level(self):
        res = assoc_exhaustive(K, 3)
        assert (res.failures, res.first_bad) == (0, (-1, -1, -1, -1))
        assert res.checked == object_level_assoc_count(3)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_prefix_table_matches_word_walk(self, k):
        # the table, row by row, from each Word of prefix_valid_words
        for max_len in range(-1, 6 if k < 3 else 5):
            t = build_prefix_table(k, max_len)
            words = list(prefix_valid_words(k, max_len))
            width = max(max_len, 1)
            assert t.syms.shape == (len(words), width) and t.focc.shape == (len(words), width + 2)
            assert t.syms.dtype == t.lens.dtype == t.focc.dtype == np.int64
            for row, w in enumerate(words):
                assert t.lens[row] == len(w)
                assert list(t.syms[row]) == [*w.symbols, *[-1] * (width - len(w))]
                focc = [-1 if first_occurrence(w, j) is None else first_occurrence(w, j) for j in range(width + 2)]
                assert list(t.focc[row]) == focc

    def test_python_variant_agrees_on_planted_faults(self, rng):
        # the faults hit syms (letters and variables, in or out of range) and
        # focc (any position, or absent).  A pair reads only its own two rows,
        # and clean ones satisfy the identity, so the first failure (i, j)
        # names a hit row; no row before i fails, row i fails against rows
        # 0..j-1 only where it meets itself, and against rows 0..j first at j.
        # A one-sided failure is -1 where w lacks x_p, p = focc[j, m], else -2
        t = build_prefix_table(K, 3)

        def sweep(rows, lo, hi):
            return _kernels.assoc_sweep(syms[rows], t.lens[rows], focc[rows], K, lo, hi, 3)

        width = t.syms.shape[1]
        faulty = 0
        for _ in range(40):
            syms, focc = t.syms.copy(), t.focc.copy()
            hit = set()
            for _ in range(rng.randrange(1, 4)):
                r, c = rng.randrange(len(t)), rng.randrange(width)
                hit.add(r)
                if rng.random() < 0.5:
                    syms[r, c] = rng.choice([-1, 0, 1, K, K + 1, K + 2, K + width + 1])
                else:
                    focc[r, c] = rng.randrange(-1, width)
            lo = rng.randrange(len(t))
            hi = rng.randrange(lo + 1, len(t) + 1)
            a = sweep(slice(None), lo, hi)
            if a[1]:
                i, j = a[2], a[3]
                assert i in hit or j in hit, a
                assert sweep(slice(None), lo, i)[1] == 0
                assert sweep([*range(j), i], j, j + 1)[1] == sweep([i], 0, 1)[1] * (i >= j), a
                assert sweep([*range(j + 1), i], j + 1, j + 2)[2:] == (j + 1, *a[3:]), a
                assert a[5] >= 0 or (focc[i, focc[j, a[4]]] < 0) == (a[5] == -1), a
            full = sweep(slice(None), 0, len(t))
            res = assoc_exhaustive(K, 3, table=WordTable(K, syms, t.lens, focc))
            assert (res.checked, res.failures, *res.first_bad) == full
            faulty += a[1] > 0
        assert faulty >= 10

    def test_planted_faults_against_oracle(self, rng, monkeypatch):
        # the exact first failure (i, j, m, uval) and failure count, from
        # the oracle, on tables with one corrupted cut point or symbol; a
        # one-byte budget (one w row per block) gives the same
        t = build_prefix_table(K, 3)
        width = t.syms.shape[1]
        # x0 without x0 (only the composition has a cut), 0x0 with x0 first
        # at 2 and 0x0[0] opening with x1 (every u fails)
        faults = [("focc", 3, 0, -1), ("focc", 6, 0, 2), ("syms", 20, 0, K + 1)]
        for trial in range(12):
            r = rng.randrange(len(t))
            if trial % 2:
                faults.append(("syms", r, rng.randrange(width), rng.choice([-1, 0, 1, K, K + 1, K + width + 1])))
            else:
                faults.append(("focc", r, rng.randrange(width + 2), rng.randrange(-1, width)))
        seen = set()
        for where, r, c, value in faults:
            syms, focc = t.syms.copy(), t.focc.copy()
            (syms if where == "syms" else focc)[r, c] = value
            want = assoc_oracle(t, syms, focc, 3)
            got = _kernels.assoc_sweep(syms, t.lens, focc, K, 0, len(t), 3)
            assert got == want, (where, r, c, value, got)
            with monkeypatch.context() as small:
                small.setattr(_kernels, "_BLOCK_BYTES", 1)
                got = _kernels.assoc_sweep(syms, t.lens, focc, K, 0, len(t), 3)
            assert got == want, (where, r, c, value, got)
            seen.add(got[5] if got[1] else None)
        assert {-2, -1, 0} <= seen


class TestRoundtripKernel:
    def test_agrees_with_library(self):
        res = tree_roundtrip_exhaustive(K, 6)
        assert (res.mismatches, res.bad_code) == (0, -1)
        count = elements = 0
        for w in var_words(K, 6, ordered=True):
            tree = tree_from_generator(w)
            assert generator_from_tree(tree.elements) == w
            count += 1
            elements += len(tree.elements)
        assert res.generators == count
        assert res.elements == elements

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_budget_matches_default(self, k, monkeypatch):
        # decode blocks of a few codes, and queues that flush many times
        # per length; every generator reaches one batch
        want = _kernels.tree_roundtrip_sweep(k, 7)
        real, batched = _kernels._roundtrip_batch, []

        def counted(k, g, n, *buffers):
            batched.append(len(g))
            return real(k, g, n, *buffers)

        monkeypatch.setattr(_kernels, "_roundtrip_batch", counted)
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1 << 12)
        assert _kernels.tree_roundtrip_sweep(k, 7) == want
        assert sum(batched) == want[0]

    @pytest.mark.parametrize("budget", [1, None])
    def test_failures_are_counted_and_located(self, budget, monkeypatch):
        # a batch that refuses every generator whose symbols sum to 1 mod 3:
        # the count and the first refused code (length, then code) are the
        # oracle's, whatever the blocks
        real = _kernels._roundtrip_batch

        def refusing(k, g, n, *buffers):
            return real(k, g, n, *buffers) & (g.astype(np.int64).sum(axis=1) % 3 != 1)

        monkeypatch.setattr(_kernels, "_roundtrip_batch", refusing)
        if budget:
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
        k, base = 3, 5
        refused, first = 0, -1
        for length in range(6):
            for code in range(base**length):
                digits = [code // base ** (length - 1 - c) % base for c in range(length)]
                opened = digits.index(k + 1) if k + 1 in digits else length
                if k in digits[:opened]:
                    continue  # a repeat before any variable: no generator
                nv = np.cumsum([d == k + 1 for d in digits])
                if sum(d if d < k else k + v - 1 for d, v in zip(digits, nv)) % 3 == 1:
                    refused += 1
                    first = code if first < 0 else first
        got = _kernels.tree_roundtrip_sweep(k, 5)
        assert got[2:] == (refused, first)

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

    @pytest.mark.parametrize("k, n_hor", [(2, 3), (3, 2)])
    def test_search_agrees_on_colorings_built_from_masks(self, k, n_hor):
        # Coloring keeps its colors in rank order, the sweep's bit order, so
        # bit r of a sweep mask is the color of the word of rank r
        found = coloring_sweep(k, n_hor)
        size = FiniteFamily.empty(k, n_hor).universe_size
        rng = np.random.default_rng(18)
        for bits in rng.choice(len(found), 1500, replace=False).tolist():
            c = Coloring(k, n_hor, 0, 2, bytes(bits >> r & 1 for r in range(size)))
            try:
                search_line_with_letter(c)
                got = True
            except NotFoundWithinHorizon:
                got = False
            assert got == bool(found[bits]), bits

    def test_python_variant_agrees(self, monkeypatch):
        # blocks of one lane (64 colorings): the 128 and 32,768 colorings
        # at n_hor = 2 and 3 run in 2 and 512 blocks
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1)
        for n_hor in (2, 3):
            certs, _ = line_letter_certs(K, n_hor)
            rows = certs.tolist()
            n_bits = FiniteFamily.empty(K, n_hor).universe_size
            out = np.full(1 << n_bits, 2, np.uint8)
            _kernels.line_letter_coloring_sweep(certs, n_bits, out)
            want = [any(len({f >> q & 1 for q in t}) == 1 for t in rows) for f in range(1 << n_bits)]
            assert (out == want).all(), n_hor


def _vertex_arrays_from_words(verts):
    bits = np.array([sum(1 << p for p, s in enumerate(v.symbols) if s == 1) for v in verts], np.int64)
    lens = np.array([len(v) for v in verts], np.int64)
    return bits, lens


def _first_triangle(adj):
    """The first edge (i < j, row-major) whose ends share a neighbour, with
    the least one and the number of edges before it; -1s and the number of
    edges when there is none."""
    nbrs = [set(np.flatnonzero(row).tolist()) for row in adj]
    ei, ej = np.nonzero(np.triu(adj))
    for e, (i, j) in enumerate(zip(ei.tolist(), ej.tolist())):
        if common := nbrs[i] & nbrs[j]:
            return i, j, min(common), e
    return -1, -1, -1, len(ei)


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
        default = _kernels._BLOCK_BYTES
        for n in range(1, 9):
            verts = enum_vertices(n)
            bits, lens = _vertex_arrays_from_words(verts)
            out = np.array([[edge(v, w) for w in verts] for v in verts], np.uint8)
            want = _first_triangle(out)
            # the scan lists the edges one row per block, or in blocks that
            # end mid-length
            for budget in (1, 1 << 15, default):
                monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
                packed = _kernels.henson_adjacency_packed(bits, lens)
                unpacked = np.unpackbits(packed.view(np.uint8), axis=1, count=len(bits), bitorder="little")
                assert (unpacked == out).all(), (n, budget)
                assert (packed == _kernels.pack_rows(out)).all(), (n, budget)
                assert _kernels.henson_triangle_packed(packed) == want, (n, budget)

    def test_triangle_scan_both_paths_clean(self):
        verts, adj = henson_adjacency(7)
        a = _first_triangle(adj)
        b = _kernels.henson_triangle_packed(_kernels.pack_rows(adj))
        assert a[0] == b[0] == -1

    def test_triangle_scan_catches_planted_triangle(self):
        adj = np.zeros((4, 4), np.uint8)
        for i, j in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            adj[i, j] = adj[j, i] = 1
        i, j, u, e = _first_triangle(adj)
        assert sorted((i, j, u)) == [0, 1, 2]
        assert _kernels.henson_triangle_packed(_kernels.pack_rows(adj)) == (i, j, u, e)

    def test_triangle_scan_hit_past_first_edge_block(self, monkeypatch):
        # a dense bipartite graph on 0..59 and the triangle 7, 62, 63: the
        # first hit is edge 200-odd of the first row block, past its first
        # block of edges at a 9,216-byte budget (8 rows, 144 edges)
        v = np.arange(64)
        adj = ((v[:, None] < 60) & (v < 60) & ((v[:, None] + v) % 2 == 1)).astype(np.uint8)
        for i, j in [(7, 62), (7, 63), (62, 63)]:
            adj[i, j] = adj[j, i] = 1
        want = _first_triangle(adj)
        assert want[:3] == (7, 62, 63) and want[3] > 144
        for budget in (1, 9216, _kernels._BLOCK_BYTES):
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
            assert _kernels.henson_triangle_packed(_kernels.pack_rows(adj)) == want, budget

    def test_triangle_scan_random_graphs(self, rng, monkeypatch):
        # blocks of 16 to 32 edges, from blocks of 1 to 113 rows, so that the
        # first hit is often past the first block
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 2048)
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
            want = _first_triangle(adj)
            assert _kernels.henson_triangle_packed(_kernels.pack_rows(adj)) == want, t
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
            return _kernels.pack_rows(adj)

        with pytest.raises(TriangleFound) as want:
            assert_triangle_free(5, passing_only)
        monkeypatch.setattr(_kernels, "henson_adjacency_packed", mutant_adjacency)
        with pytest.raises(TriangleFound) as got:
            henson_triangle_report(5)
        assert str(got.value) == str(want.value)
        assert got.value.triple == want.value.triple


@pytest.mark.parametrize(
    "battery",
    [
        lambda workers: assoc_exhaustive(K, 4, workers=workers),
        lambda workers: tree_roundtrip_exhaustive(K, 6, workers=workers),
        lambda workers: coloring_sweep(K, 3, workers=workers).tobytes(),
    ],
    ids=["assoc", "tree", "coloring"],
)
def test_batteries_run_in_one_thread(battery, monkeypatch):
    # ``workers`` is ignored: no battery starts a thread, at any count
    def refuse(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert battery(1) == battery(8)


def _triangle_report():
    rep = henson_triangle_report(10)
    assert rep.edges == 77_309
    return rep


@pytest.mark.parametrize(
    "battery",
    [
        lambda: assoc_exhaustive(K, 5),
        lambda: tree_roundtrip_exhaustive(K, 8),
        lambda: coloring_sweep(K, 3).tobytes(),
        # a dense int64 adjacency of these 2,036 vertices alone is 33 MB;
        # the packed rows are 0.5 MB, and no edge list is kept
        _triangle_report,
    ],
    ids=["assoc", "tree", "coloring", "triangles"],
)
def test_battery_peak_within_budget(battery):
    # the batteries at their benchmark sizes hold a few block buffers of
    # _BLOCK_BYTES besides their inputs and results
    want = battery()  # warm any lazy numpy state first
    tracemalloc.start()
    try:
        got = battery()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
