"""Hot loops behind the exhaustive sweeps.

Each kernel runs as numpy on every machine: the substitution
associativity sweep (``assoc_sweep``), the ordered-generator round trip
(``tree_roundtrip_sweep``), the bit-sliced coloring sweep
(``line_letter_coloring_sweep``) and the coded-graph scans on packed
neighbour rows (``henson_adjacency_packed`` builds the rows,
``henson_triangle_packed`` ANDs the two rows of each edge).
``tests/test_kernels.py`` checks each against the ``Word``-object
route, or a short oracle where no ``Word`` can hold the input.  Each
battery in ``sweeps`` is one call of its kernel over the whole range,
in one thread; only ``assoc_sweep`` takes a range (of w rows), which
the tests use to bisect to a first failure.

The sweeps and the triangle scan work a block at a time, and
``_BLOCK_BYTES`` is the one constant that sizes their blocks.  A call allocates its block buffers
once and reuses them (``out=``), in the narrowest dtype that holds
their values, and sizes its blocks so that the buffers and the
temporaries of one block stay within the budget: once for the
associativity, coloring and triangle kernels, twice for the round trip
(a block of decoded codes, and a batch of instantiated generators).
Beyond that a call holds its inputs, its result (the packed rows of
the coded graph, which ``henson_adjacency_packed`` builds in place),
and per-call tables the size of its input.  A block is at least one
row, so a single row larger than the budget (one generator's k**n
elements) is taken whole.

Word encoding in here is flat arrays: symbols as small ints with
letters below k and x_j as k+j, one row per word, -1 padding, plus a
first-occurrence table per variable index.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# helpers of the numpy sweeps

_BLOCK_BYTES = 1 << 19  # bytes of block buffers and block temporaries per kernel


def _int_dtype(lo: int, hi: int):
    """Smallest signed integer dtype holding every value in [lo, hi]."""
    for dt in (np.int8, np.int16, np.int32):
        if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max:
            return dt
    return np.int64


def _digit_table(k: int, m: int, dtype) -> np.ndarray:
    """digits[u, b]: digit b (most significant first) of every u < k**m."""
    u = np.arange(k**m)[:, None]
    return (u // k ** np.arange(m - 1, -1, -1) % k).astype(dtype)


# ---------------------------------------------------------------------------
# substitution associativity sweep


def assoc_sweep(syms, lens, focc, k, lo, hi, max_u_len):
    """Check w[v[u]] == compose(w, v)[u] for all pairs (w in [lo,hi), v) and letter u.

    Returns (both_defined_checks, failures, i, j, m, uval) where the last
    four locate the first discrepancy in (i, j, m, uval) order, or are -1s.
    uval is -1 when only the composition has a cut point and -2 when
    only w[v[u]] has one.  A substitution that would read a variable
    outside the substituted word (only a corrupted table has one) makes
    every u of its (i, j, m) fail.  focc entries must lie in [-1, width).

    Both sides read the same ``syms`` entries before their cut points:
    at a letter of w both give that letter, at x_b both give v[b] under
    u.  So where the cut points agree, and no variable beyond x_m comes
    before them, the two sides agree for every u; the sweep checks the
    table's cut points (``focc`` against ``syms`` and ``lens``), and the
    values of ``substitute``/``compose`` rest on the object-level tests.

    A column is one (v, m) with v reaching x_m; the columns run level by
    level, v ascending within a level.  Per block of w rows it computes,
    over every column at once, x_m's first position in w[v[u]] (that of
    x_p in w, p = v's first x_m, read from ``focc``) and in the
    composition (the least first position in w of an x_b with v[b] =
    x_m, taken before the composition's cut).
    """
    n_words, width = syms.shape
    mcap = min(max_u_len + 1, focc.shape[1])
    depth = np.logical_and.accumulate(focc[:, :mcap] >= 0, axis=1).sum(axis=1)
    ncols = int(depth.sum())
    if hi <= lo or ncols == 0:
        return 0, 0, -1, -1, -1, -1
    jc = np.concatenate([np.flatnonzero(depth > m) for m in range(mcap)])
    mc = np.repeat(np.arange(mcap), [int((depth > m).sum()) for m in range(mcap)])
    key = jc * mcap + mc  # (j, m) order of the columns
    pv = focc[jc, mc]
    vl = np.minimum(lens[jc], width)
    nu = np.asarray(k, np.int64) ** mc
    vmask = [(b, syms[jc, b] == k + mc) for b in range(width)]
    vmask = [(b, mask) for b, mask in vmask if mask.any()]

    dt = _int_dtype(-1, width)
    var = np.where(syms >= k, syms - k, -1).astype(_int_dtype(-1, int(syms.max()) - k))
    # pm[r, c]: largest variable index among syms[r, :c], -1 if none
    pm = np.full((n_words, width + 1), -1, var.dtype)
    np.maximum.accumulate(var, axis=1, out=pm[:, 1:])
    vbad = pm[jc, pv] >= mc
    fw_tab = focc[:, :width].astype(dt)
    # wbad[r, p]: x_p occurs in row r after a variable of index >= p
    wbad = np.empty((n_words, width), bool)
    for p in range(width):
        wbad[:, p] = np.take_along_axis(pm, np.maximum(fw_tab[:, p, None], 0), axis=1)[:, 0] >= p
    wbad &= fw_tab >= 0
    # tf[r, b]: first position of x_b in row r, width if none
    tf = np.full((n_words, width), width, dt)
    for c in range(width - 1, -1, -1):
        r = np.flatnonzero((var[:, c] >= 0) & (var[:, c] < width))
        tf[r, var[r, c]] = c
    # cut[r, l]: length of compose(w_r, v) for any v of length l, that is
    # the first position of a variable x_b with b >= l (or the end of w_r)
    cut = np.empty((n_words, width + 1), dt)
    for l in range(width + 1):
        cut[:, l] = np.where(var >= l, np.arange(width, dtype=dt), width).min(axis=1)
    np.minimum(cut, lens[:, None], out=cut)

    step = max(1, _BLOCK_BYTES // (ncols * (3 * np.dtype(dt).itemsize + 6)))
    rows = min(step, hi - lo)
    fz, zl, fw = (np.empty((rows, ncols), dt) for _ in range(3))
    found, has_w, both, one, und, diff = (np.empty((rows, ncols), bool) for _ in range(6))
    checked = failures = 0
    first = None
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        n = b - a
        if n < rows:
            fz, zl, fw, found, has_w, both, one, und, diff = (
                x[:n] for x in (fz, zl, fw, found, has_w, both, one, und, diff)
            )
        fz.fill(width)
        for p, mask in vmask:
            np.minimum(fz, tf[a:b, p, None], out=fz, where=mask)
        np.take(cut[a:b], vl, axis=1, out=zl, mode="clip")
        np.less(fz, zl, out=found)
        np.take(fw_tab[a:b], pv, axis=1, out=fw, mode="clip")
        np.greater_equal(fw, 0, out=has_w)
        np.logical_and(has_w, found, out=both)
        np.not_equal(has_w, found, out=one)
        # (a variable beyond x_m before the composition's cut would
        # need one in v before pv or in w before fw: vbad or wbad)
        np.take(wbad[a:b], pv, axis=1, out=und, mode="clip")
        und |= vbad
        np.not_equal(fw, fz, out=diff)
        und |= diff
        und &= both
        checked += int(np.count_nonzero(both, axis=0) @ nu)
        block_failures = int(np.count_nonzero(one)) + int(np.count_nonzero(und, axis=0) @ nu)
        failures += block_failures
        if first is None and block_failures:
            one |= und
            r = int(one.any(axis=1).argmax())
            cols = np.flatnonzero(one[r])
            c = int(cols[np.argmin(key[cols])])
            code = 0 if und[r, c] else (-1 if found[r, c] else -2)
            first = (a + r, int(jc[c]), int(mc[c]), code)
    return (checked, failures) + (first or (-1, -1, -1, -1))


# ---------------------------------------------------------------------------
# ordered-generator tree roundtrip sweep (k >= 2)


def _roundtrip_batch(k, g, n, e, same, found):
    """Instantiate and reconstruct generators that all have n variables.

    g holds one generator per row; e, same and found are buffers of at
    least g.size * k**n int8, bool and bool elements.  Returns, per
    generator, whether the reconstruction gave it back exactly.  The
    loop's search for a variable pattern is limited to variables
    introduced by then; a column can only fit the pattern of the
    variable that sits there, so the limit is left out.
    """
    cnt, length = g.shape
    top = k**n
    digits = _digit_table(k, n, g.dtype)
    # tab[:, s]: symbol s under every u, so e[:, c, r] = tab[:, g[r, c]]
    tab = np.concatenate([np.repeat(np.arange(k, dtype=g.dtype)[None, :], top, axis=0), digits], axis=1)
    # top level as (pattern value, position, generator), pattern value
    # ascending; the lower levels are its prefixes up to the cuts
    e = np.take(tab, g.T, axis=1, out=e[: g.size * top].reshape(top, length, cnt), mode="clip")
    if n == 0:
        return (e[0].T == g).all(axis=1)
    isvar = g >= k
    gv = np.where(isvar, g - k, -1)
    seen = np.maximum.accumulate(gv, axis=1)
    is_cut = gv > np.concatenate([np.full((cnt, 1), -1, gv.dtype), seen[:, :-1]], axis=1)
    cuts = np.nonzero(is_cut)[1].reshape(cnt, n)
    # ---- reconstruction from elements only ----
    r = np.arange(cnt)
    val = np.zeros((top, cnt), _int_dtype(0, top))
    for i2 in range(n):
        val *= k
        val += e[:, cuts[:, i2], r]
    if not (val == np.arange(top)[:, None]).all():
        pos_of_val = np.zeros((top, cnt), np.int64)
        np.put_along_axis(pos_of_val, val.astype(np.intp), np.broadcast_to(np.arange(top)[:, None], val.shape), axis=0)
        e[:] = np.take_along_axis(e, pos_of_val[:, None], axis=0)
    eq = same[: e.size].reshape(e.shape)
    np.equal(e, e[:1], out=eq)
    same = eq.all(axis=0).T
    # at most one variable's pattern fits a column: the one whose unit
    # pattern value reads 1 where pattern value 0 reads 0
    cand = ((e[k ** np.arange(n - 1, -1, -1)] == 1) & (e[:1] == 0)).argmax(axis=0)
    pattern = np.take(digits, cand, axis=1, out=found[: e.size].view(np.int8).reshape(e.shape), mode="clip")
    np.equal(e, pattern, out=eq)
    found = eq.all(axis=0).T
    g2 = np.where(is_cut, k + seen, np.where(same, e[0].T, k + cand.T))
    return (is_cut | same | found).all(axis=1) & (g2 == g).all(axis=1)


def tree_roundtrip_sweep(k, max_len):
    """Build and invert every ordered generator of length at most max_len.

    Enumerates generators through base-(k+2) codes, most significant
    digit first (digit < k a letter, k repeats the current variable,
    k+1 introduces the next; a repeat before any variable is no
    generator), instantiates every level, reconstructs the generator
    from the element set alone and compares.  Returns (generators,
    elements, mismatches, bad_code): elements sums k^0 + ... + k^n over
    the generators of n variables, and bad_code is the first failing
    code in (length, code) order, or -1.

    Decodes the base-(k+2) codes of each length a block at a time and
    queues the generators by variable count; a full queue, and at the
    end of the length every queue, goes to ``_roundtrip_batch``.  A
    queue of n variables holds as many generators as the batch buffers
    take, and at least one.
    """
    n_gen = n_elems = mismatches = 0
    bad_code = -1
    base = k + 2
    dt = _int_dtype(-1, k + max(max_len, 0))
    cells = max(_BLOCK_BYTES // 4, max(max_len, 1) * k ** max(max_len, 0))
    e, same, found = np.empty(cells, np.int8), np.empty(cells, bool), np.empty(cells, bool)
    for length in range(max_len + 1):
        width = max(length, 1)
        total = base**length
        cdt = _int_dtype(0, total)
        # a batch of generators with n variables fits its k**n elements
        # per symbol in each of the three buffers, and its per-symbol
        # arrays and indices (about 3n + 40 bytes a symbol) in one more
        size = [max(1, cells // (width * (k**n + 3 * n + 40))) for n in range(length + 1)]
        queue = [np.empty((m, length), dt) for m in size]
        qcode = [np.empty(m, cdt) for m in size]
        fill = [0] * (length + 1)
        failed = []

        def flush(n):
            nonlocal mismatches
            ok = _roundtrip_batch(k, queue[n][: fill[n]], n, e, same, found)
            if not ok.all():
                mismatches += int(np.count_nonzero(~ok))
                failed.append(int(qcode[n][: fill[n]][~ok].min()))
            fill[n] = 0

        step = max(1, _BLOCK_BYTES // (16 * width))
        for c0 in range(0, total, step):
            code = np.arange(c0, min(c0 + step, total), dtype=cdt)
            d = np.empty((len(code), length), dt)
            for c in range(length - 1, -1, -1):
                np.remainder(code, base, out=d[:, c])
                code //= base
            nv = np.cumsum(d == k + 1, axis=1, dtype=dt)
            keep = ~((d == k) & (nv == 0)).any(axis=1)
            d, nv = d[keep], nv[keep]
            g = np.where(d < k, d, nv + (k - 1))
            gcode = (c0 + np.flatnonzero(keep)).astype(cdt)
            n_of = nv[:, -1] if length else np.zeros(len(g), dt)
            for n in np.flatnonzero(np.bincount(n_of)).tolist():
                sel = n_of == n
                rows, rcode = g[sel], gcode[sel]
                n_gen += len(rows)
                n_elems += len(rows) * sum(k**j for j in range(n + 1))
                while len(rows):
                    m = min(size[n] - fill[n], len(rows))
                    queue[n][fill[n] : fill[n] + m] = rows[:m]
                    qcode[n][fill[n] : fill[n] + m] = rcode[:m]
                    fill[n] += m
                    rows, rcode = rows[m:], rcode[m:]
                    if fill[n] == size[n]:
                        flush(n)
        for n in range(length + 1):
            if fill[n]:
                flush(n)
        if bad_code < 0 and failed:
            bad_code = min(failed)
    return n_gen, n_elems, mismatches, bad_code


# ---------------------------------------------------------------------------
# line-with-letter sweep over all 2-colorings (any k, horizon fixed by tables)


# plane r of the colorings 0..63: bit i set where bit r of i is
_LANE_PLANES = [sum(1 << i for i in range(64) if i >> r & 1) for r in range(6)]


def line_letter_coloring_sweep(cert_words, n_bits, out_found):
    """For each coloring bitmask f < 2**n_bits, set out_found[f] to 1 when
    some row t of cert_words (rank indices into the coloring, bit t[q]
    of f the color of word t[q]) is monochromatic under f, else 0.

    The colorings f are held as n_bits bit planes: plane r holds bit r
    of every f, 64 colorings per uint64 lane (Biham, FSE 1997).  Planes
    0-5 repeat in every lane; plane r >= 6 is all ones or all zeros per
    lane.  A row is monochromatic in the lanes where its first plane
    XORs to zero with each other plane; any row sets the hit lane.  All
    rows are taken at once, one row position at a time, a block of lanes
    at a time.
    """
    rows = np.asarray(cert_words, np.intp)
    total = 1 << n_bits
    if rows.size == 0:
        out_found[:total] = 0
        return 0
    # per lane: the planes; the first words of the rows, their differences,
    # one more plane of every row and the copy ``take`` makes of it; and
    # the unpacked hits
    lanes = max(1, min(_BLOCK_BYTES // (8 * (n_bits + 4 * len(rows) + 10)), (total + 63) >> 6))
    planes = np.empty((n_bits, lanes), np.uint64)
    for r in range(min(n_bits, 6)):
        planes[r] = _LANE_PLANES[r]
    first, differ, other = (np.empty((len(rows), lanes), np.uint64) for _ in range(3))
    hit = np.empty(lanes, "<u8")
    for a in range(0, total, 64 * lanes):
        b = min(a + 64 * lanes, total)
        lane = np.arange(a >> 6, (b + 63) >> 6, dtype=np.int64)
        n = len(lane)
        block = planes[:, :n]
        for r in range(6, n_bits):
            block[r] = -((lane >> (r - 6)) & 1).astype(np.uint64)
        f, d, o, h = first[:, :n], differ[:, :n], other[:, :n], hit[:n]
        np.take(block, rows[:, 0], axis=0, out=f)
        d.fill(0)
        for q in range(1, rows.shape[1]):
            np.take(block, rows[:, q], axis=0, out=o)
            o ^= f
            d |= o
        np.invert(d, out=d)
        np.bitwise_or.reduce(d, axis=0, out=h)
        found = np.unpackbits(h.view(np.uint8), bitorder="little")
        out_found[a:b] = found[: b - a]
    return 0


# ---------------------------------------------------------------------------
# coded-graph kernels


def pack_rows(adj: np.ndarray) -> np.ndarray:
    """Pack a 0/1 adjacency matrix into per-row uint64 bitsets.

    Bit c % 64 of word c // 64 of row i is adj[i, c].
    """
    v, cols = adj.shape
    out = np.zeros((v, (cols + 63) // 64), "<u8")
    packed = np.packbits(adj, axis=1, bitorder="little")
    out.view(np.uint8)[:, : packed.shape[1]] = packed
    return out


def henson_adjacency_packed(bits: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Packed adjacency rows of the coded graph, as ``pack_rows`` packs them.

    Vertex i is the word over {0, x0} of length lens[i] with x0 at
    position p where bit p of bits[i] is set.  Vertices i and j are adjacent when
    lens[i] < lens[j], bit lens[i] of bits[j] is set and bits[i] &
    bits[j] == 0 (or the same with i and j swapped).  For vertices with
    bits[i] < 2**lens[i], bit lens[i] of bits[j] can be set only when
    lens[i] < lens[j], so the length test is implied.

    The rows are built packed: with has[p] the packed set of vertices
    whose bit p is set and of[l] that of the vertices of length l, row i
    is has[lens[i]], or'ed with of[p] and and'ed with ~has[p] for each
    bit p of bits[i].  Besides the rows it holds only these sets and the
    vertices' bits, so it needs no block buffer.
    """
    v = len(bits)
    packed = np.zeros((v, (v + 63) // 64), "<u8")
    if v == 0:
        return packed
    nb = max(int(bits.max()).bit_length(), int(lens.max()) + 1)
    dt = _int_dtype(0, max(int(bits.max()), nb))
    bit = (bits.astype(dt)[:, None] >> np.arange(nb, dtype=dt)) & 1 == 1
    has = pack_rows(bit.T)
    of = pack_rows(lens == np.arange(nb)[:, None])
    np.take(has, lens, axis=0, out=packed, mode="clip")
    for p in range(nb):
        np.bitwise_or(packed, of[p], out=packed, where=bit[:, p, None])
    np.invert(has, out=has)
    for p in range(nb):
        np.bitwise_and(packed, has[p], out=packed, where=bit[:, p, None])
    return packed


def henson_triangle_packed(packed):
    """Scan the edges (i, j), i < j, of a symmetric loop-free graph with
    packed neighbour rows, in row-major order, for the first one whose
    rows share a vertex u.

    Returns (i, j, u, edges): that edge with its lowest common neighbour
    u, and the number of edges before it; -1s and the number of edges
    when no edge has one.  Half the budget unpacks a block of rows and
    lists its edges (a byte per cell and at most one index per cell),
    the other half ANDs the packed rows of a block of those edges.
    """
    v, words = packed.shape
    rows = max(1, min(v, _BLOCK_BYTES // 2 // (max(v, 1) * 9)))
    step = max(1, _BLOCK_BYTES // 2 // (2 * words * packed.itemsize + 16))
    above = np.triu(np.ones((rows, rows), bool), 1)
    lhs, rhs = np.empty((step, words), packed.dtype), np.empty((step, words), packed.dtype)
    edges = 0
    for a in range(0, v, rows):
        n = min(rows, v - a)
        c0 = a - a % 64
        cells = np.unpackbits(packed[a : a + n, c0 // 64 :].view(np.uint8), axis=1, bitorder="little").view(bool)
        cells[:, : a - c0] = False
        cells[:, a - c0 : a - c0 + n] &= above[:n, :n]
        flat = np.flatnonzero(cells)
        for b in range(0, len(flat), step):
            m = min(step, len(flat) - b)
            i, j = np.divmod(flat[b : b + m], cells.shape[1])
            both, other = lhs[:m], rhs[:m]
            np.take(packed[a:], i, axis=0, out=both, mode="clip")
            np.take(packed[c0:], j, axis=0, out=other, mode="clip")
            np.bitwise_and(both, other, out=both)
            if both.any():
                e = int(both.any(axis=1).argmax())
                w = int(np.flatnonzero(both[e])[0])
                x = int(both[e, w])
                return int(i[e]) + a, int(j[e]) + c0, w * 64 + (x & -x).bit_length() - 1, edges + b + e
        edges += len(flat)
    return -1, -1, -1, edges
