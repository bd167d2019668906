"""Hot loops behind the exhaustive sweeps.

Each kernel runs as numpy on every machine: the substitution
associativity sweep (``assoc_sweep``), the ordered-generator round trip
(``tree_roundtrip_sweep``), the bit-sliced coloring sweep
(``line_letter_coloring_sweep``) and the coded-graph scans on packed
neighbour rows (``henson_adjacency_packed`` builds the rows in bounded
row blocks, ``henson_triangle_packed`` ANDs the two rows of each edge
in bounded edge chunks).  Each keeps its plain loop as ``*_py``, the
reference it must match bit for bit (see ``tests/test_kernels.py`` and
``python -m varword.benchmark``).

Word encoding in here is flat arrays: symbols as small ints with
letters below k and x_j as k+j, one row per word, -1 padding, plus a
first-occurrence table per variable index.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# helpers of the numpy sweeps

_CHUNK = 1 << 20  # elements per temporary array in the numpy sweeps
_ROW_BLOCK = 1 << 18  # adjacency cells (rows x vertices) per row block
_EDGE_CHUNK = 1 << 16  # packed words (edges x row words) per edge chunk


def _int_dtype(lo: int, hi: int):
    """Smallest signed integer dtype holding every value in [lo, hi]."""
    for dt in (np.int8, np.int16, np.int32):
        if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max:
            return dt
    return np.int64


def _digit_table(k: int, m: int) -> np.ndarray:
    """Row b holds digit b (most significant first) of every u < k**m.

    At least one row, so that lookups with a placeholder index 0 work
    for m == 0 too.
    """
    u = np.arange(k**m)
    d = np.zeros((max(m, 1), k**m), np.int64)
    for b in range(m):
        d[b] = (u // k ** (m - 1 - b)) % k
    return d


def _rows_differ(a, b):
    """a[..., :] != b[..., :] anywhere along the last axis."""
    size = a.shape[-1] * a.itemsize
    if size in (1, 2, 4, 8):
        wide = np.dtype(f"u{size}")
        return a.view(wide)[..., 0] != b.view(wide)[..., 0]
    return (a != b).any(axis=-1)


# ---------------------------------------------------------------------------
# substitution associativity sweep


def assoc_sweep_py(syms, lens, focc, k, lo, hi, max_u_len):
    """Check w[v[u]] == compose(w, v)[u] for all pairs (w in [lo,hi), v) and letter u.

    Returns (both_defined_checks, failures, i, j, m, uval) where the last
    four locate the first discrepancy in (i, j, m, uval) order, or are -1s.
    uval is -1 when only the composition has a cut point and -2 when
    only w[v[u]] has one.  A substitution that would read a variable
    outside the substituted word (only a corrupted table has one) makes
    every u of its (i, j, m) fail.  focc entries must lie in [-1, width).

    Both sides read the same ``syms`` entries wherever their cut points
    agree, so the sweep checks the table's cut points (``focc`` against
    ``syms`` and ``lens``), not the values of ``substitute``/``compose``;
    those rest on the object-level tests.
    """
    n_words = syms.shape[0]
    width = syms.shape[1]
    zbuf = np.empty(width, np.int64)
    vu = np.empty(width, np.int64)
    wvu = np.empty(width, np.int64)
    zu = np.empty(width, np.int64)
    udig = np.empty(width, np.int64)
    checked = 0
    failures = 0
    bad_i = bad_j = bad_m = bad_u = -1
    for i in range(lo, hi):
        lw = lens[i]
        for j in range(n_words):
            lv = lens[j]
            # compose w (row i) with v (row j) into zbuf
            zlen = 0
            for c in range(lw):
                s = syms[i, c]
                if s < k:
                    zbuf[zlen] = s
                    zlen += 1
                else:
                    b = s - k
                    if b >= lv:
                        break
                    zbuf[zlen] = syms[j, b]
                    zlen += 1
            for m in range(max_u_len + 1):
                pv = focc[j, m] if m < focc.shape[1] else -1
                if pv < 0:
                    break  # x_m absent from v: larger m absent too
                fw = focc[i, pv] if pv < focc.shape[1] else -1
                # first occurrence of x_m in the composition
                fz = -1
                for c in range(zlen):
                    if zbuf[c] == k + m:
                        fz = c
                        break
                if fw < 0:
                    if fz >= 0:
                        failures += 1
                        if bad_i < 0:
                            bad_i, bad_j, bad_m, bad_u = i, j, m, -1
                    continue
                if fz < 0:
                    failures += 1
                    if bad_i < 0:
                        bad_i, bad_j, bad_m, bad_u = i, j, m, -2
                    continue
                undefined = fw != fz
                for c in range(pv):
                    if syms[j, c] >= k + m:
                        undefined = True
                for c in range(fw):
                    if syms[i, c] >= k + pv:
                        undefined = True
                for c in range(fz):
                    if zbuf[c] > k + m:
                        undefined = True
                for uval in range(k**m):
                    checked += 1
                    if undefined:
                        failures += 1
                        if bad_i < 0:
                            bad_i, bad_j, bad_m, bad_u = i, j, m, uval
                        continue
                    r = uval
                    for b in range(m - 1, -1, -1):
                        udig[b] = r % k
                        r //= k
                    # v[u]
                    for c in range(pv):
                        s = syms[j, c]
                        vu[c] = s if s < k else udig[s - k]
                    # w[v[u]]
                    for c in range(fw):
                        s = syms[i, c]
                        wvu[c] = s if s < k else vu[s - k]
                    # compose(w, v)[u]
                    for c in range(fz):
                        s = zbuf[c]
                        zu[c] = s if s < k else udig[s - k]
                    for c in range(fw):
                        if wvu[c] != zu[c]:
                            failures += 1
                            if bad_i < 0:
                                bad_i, bad_j, bad_m, bad_u = i, j, m, uval
                            break
    return checked, failures, bad_i, bad_j, bad_m, bad_u


def assoc_sweep(syms, lens, focc, k, lo, hi, max_u_len):
    """Numpy form of ``assoc_sweep_py``: same arguments, same return value.

    Takes a block of w rows against every v at once.  Per block it
    composes every pair; per m it sorts the pairs into x_m absent on
    one side, undefined, or both sides defined, and for the defined ones
    evaluates w[v[u]] and compose(w, v)[u] for every u by row lookups:
    v[u] is tabulated once per (v, m), the composition looks up the
    digits of u.  The v are taken deepest first, so that the v reaching
    x_m form a prefix at every m.

    Symbols travel as codes: the letter values (those of the table, the
    digits of u and -1, the blank) are ranked l = 0, 1, ... and coded l,
    the variable x_b is coded n_letters + b.  Every lookup table starts
    with one constant row per letter, so a code indexes it directly, and
    both sides of the identity are compared as letter codes.
    """
    n_words, width = syms.shape
    ncols = focc.shape[1]
    mcap = min(max_u_len + 1, ncols)
    if n_words == 0 or hi <= lo or mcap == 0:
        return 0, 0, -1, -1, -1, -1
    isvar = syms >= k
    letters = np.array(sorted(set(syms[~isvar].tolist()) | set(range(-1, k))))
    nl = len(letters)
    blank = int(np.searchsorted(letters, -1))
    dt = _int_dtype(-1, nl + max(int(syms.max()) - k, max_u_len, width) + 1)
    code = np.where(isvar, nl + syms - k, np.searchsorted(letters, syms)).astype(dt)
    wsel = np.minimum(code, nl + width - 1).astype(np.intp)
    # pm[r, c]: largest variable index among syms[r, :c], -1 if none
    pm = np.full((n_words, width + 1), -1, np.int64)
    np.maximum.accumulate(np.where(isvar, syms - k, -1), axis=1, out=pm[:, 1:])
    # wbad[r, p]: x_p occurs in row r after a variable of index >= p
    fo = np.clip(focc[:, :width], 0, width)
    wbad = (np.take_along_axis(pm, fo, axis=1) >= np.arange(fo.shape[1])) & (focc[:, :width] >= 0)
    focc_c = focc.astype(dt)
    depth = np.logical_and.accumulate(focc[:, :mcap] >= 0, axis=1).sum(axis=1)
    order = np.argsort(-depth, kind="stable")
    # cut[r, l]: length of compose(w_r, v) for any v of length l, that is
    # the first position of a variable x_b with b >= l (or the end of w_r)
    pos = np.where(isvar, np.arange(width), width)
    cut = np.stack([np.where(syms - k >= l, pos, width).min(axis=1) for l in range(width + 1)], axis=1)
    cut = np.minimum(cut, lens[:, None]).astype(dt)
    vlens = np.minimum(lens[order], width)
    # compose lookup: one constant row per letter code, then row nl + b
    # holds the code of v[b] for every v
    ztab = np.concatenate([np.repeat(np.arange(nl, dtype=dt)[:, None], n_words, axis=1), code[order].T])

    levels = []
    for m in range(mcap):
        nj = int((depth > m).sum())
        if nj == 0:
            break
        nu = k**m
        J = order[:nj]
        pv = focc[J, m]
        digits = np.searchsorted(letters, _digit_table(k, m)).astype(dt)
        lrows = np.repeat(np.arange(nl, dtype=dt)[:, None], nu, axis=1)
        # vtab[x, j, u]: v_j[u] at position b for x = nl + b, letter x otherwise
        vidx = np.clip(syms[J] - k, 0, len(digits) - 1)
        vu = np.where(isvar[J][:, :, None], digits[vidx], code[J][:, :, None])
        vtab = np.concatenate([np.broadcast_to(lrows[:, None, :], (nl, nj, nu)), vu.transpose(1, 0, 2)])
        dtab = np.concatenate([lrows, digits])
        pvc = np.minimum(pv, ncols - 1)
        levels.append((m, nj, J, pv, pvc, vtab, dtab, pm[J, pv] >= m))

    widest = max([n_words] + [nj * k**m for m, nj, *_ in levels])
    step = max(1, _CHUNK // (width * widest))
    checked = failures = 0
    first = None
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        nb = b - a
        cmax = int(lens[a:b].max())
        # z[i, c, j]: code of compose(w_i, v_j) at c, the blank from its end on
        z = np.take(ztab, wsel[a:b, :cmax], axis=0)
        zlen = np.take(cut[a:b], vlens, axis=1)
        for c in range(cmax):
            np.copyto(z[:, c], blank, where=zlen <= c)
        block_first = None
        for m, nj, J, pv, pvc, vtab, dtab, vbad in levels:
            nu = k**m
            t = nl + m
            found = np.zeros((nb, nj), bool)
            fz = np.full((nb, nj), -1, dt)  # ends as the first position of x_m
            for c in range(cmax):
                fz += (~found).view(np.int8).astype(dt, copy=False)
                found |= z[:, c, :nj] == t
            fw = np.take(focc_c[a:b], pvc, axis=1)
            fw[:, pv >= ncols] = -1
            has_w = fw >= 0
            both = has_w & found
            checked += int(np.count_nonzero(both)) * nu
            # (a variable beyond x_m before the composition's cut would
            # need one in v before pv or in w before fw: vbad or wbad)
            und = both & ((fw != fz) | vbad | np.take(wbad[a:b], np.minimum(pv, width - 1), axis=1))
            one_sided = has_w ^ found
            failures += int(np.count_nonzero(one_sided)) + int(np.count_nonzero(und)) * nu
            good = both & ~und
            # w[v[u]] against compose(w, v)[u], position by position, over
            # the whole grid of pairs; only the good pairs count
            differ = np.zeros((nb, nj), bool)
            fmax = int(fw[good].max()) if good.any() else 0
            for c in range(fmax):
                lhs = np.take(vtab, wsel[a:b, c], axis=0)
                rhs = np.take(dtab, z[:, c, :nj], axis=0, mode="clip")
                differ |= _rows_differ(lhs, rhs) & (c < fw)
            differ &= good
            n_bad = 0
            if differ.any():
                # u by u, for the pairs that differ somewhere
                ii, jj = np.nonzero(differ)
                bad = np.zeros((len(ii), nu), bool)
                for c in range(fmax):
                    lhs = vtab[wsel[a + ii, c], jj]
                    rhs = np.take(dtab, z[ii, c, jj], axis=0, mode="clip")
                    bad |= (lhs != rhs) & (c < fw[ii, jj])[:, None]
                n_bad = int(np.count_nonzero(bad))
                failures += n_bad
            if n_bad or one_sided.any() or und.any():
                fail = np.full((nb, nj), nu)  # nu: no failure
                fail[found & ~has_w] = -1
                fail[has_w & ~found] = -2
                fail[und] = 0
                if n_bad:
                    fail[ii, jj] = bad.argmax(axis=1)
                r = int(np.flatnonzero((fail < nu).any(axis=1))[0])
                cols = np.flatnonzero(fail[r] < nu)
                c0 = cols[np.argmin(J[cols])]
                cand = (a + r, int(J[c0]), m, int(fail[r, c0]))
                if block_first is None or cand[:3] < block_first[:3]:
                    block_first = cand
        if first is None:
            first = block_first
    return (checked, failures) + (first or (-1, -1, -1, -1))


# ---------------------------------------------------------------------------
# ordered-generator tree roundtrip sweep (k >= 2)


def tree_roundtrip_sweep_py(k, max_len, lo_len, hi_len):
    """Build and invert every ordered generator with length in [lo_len, hi_len].

    Enumerates generators through base-(k+2) codes (letters, repeat
    current variable, introduce next variable), instantiates every
    level, reconstructs the generator from the element set alone and
    compares.  Returns (generators, elements, mismatches, bad_code).
    """
    width = max_len
    gbuf = np.empty(width, np.int64)
    cuts = np.empty(width + 1, np.int64)
    g2 = np.empty(width, np.int64)
    max_elems = 1
    for _ in range(width + 1):
        max_elems *= k
    total_e = (max_elems * k - 1) // (k - 1)
    elems = np.empty((total_e, width), np.int64)
    elen = np.empty(total_e, np.int64)
    pos_of_val = np.empty(max_elems, np.int64)
    digits = np.empty(width, np.int64)
    code = np.empty(width, np.int64)
    n_gen = 0
    n_elems = 0
    mismatches = 0
    bad_code = -1
    for length in range(lo_len, hi_len + 1):
        for c in range(length):
            code[c] = 0
        while True:
            # decode: digit < k letter, k repeat, k+1 introduce
            nvars = 0
            valid = True
            for c in range(length):
                d = code[c]
                if d < k:
                    gbuf[c] = d
                elif d == k:
                    if nvars == 0:
                        valid = False
                        break
                    gbuf[c] = k + nvars - 1
                else:
                    gbuf[c] = k + nvars
                    nvars += 1
            if valid:
                n = nvars
                # cut positions: first occurrence of each variable, then end
                for j in range(n):
                    for c in range(length):
                        if gbuf[c] == k + j:
                            cuts[j] = c
                            break
                cuts[n] = length
                # elements, level by level, pattern value ascending
                row = 0
                for j in range(n + 1):
                    cnt = 1
                    for _ in range(j):
                        cnt *= k
                    for val in range(cnt):
                        r = val
                        for b in range(j - 1, -1, -1):
                            digits[b] = r % k
                            r //= k
                        cl = cuts[j]
                        for c in range(cl):
                            s = gbuf[c]
                            elems[row, c] = s if s < k else digits[s - k]
                        elen[row] = cl
                        row += 1
                n_gen += 1
                n_elems += row
                # ---- reconstruction from elements only ----
                top_cnt = 1
                for _ in range(n):
                    top_cnt *= k
                top0 = row - top_cnt
                ok = True
                for t in range(top_cnt):
                    val = 0
                    for i2 in range(n):
                        val = val * k + elems[top0 + t, cuts[i2]]
                    pos_of_val[val] = top0 + t
                for c in range(length):
                    jz = 0
                    for j in range(n):
                        if cuts[j] <= c:
                            jz = j + 1
                    # jz-1 is the zone variable when c is past cuts[jz-1]
                    iscut = False
                    for j in range(n):
                        if cuts[j] == c:
                            g2[c] = k + j
                            iscut = True
                            break
                    if iscut:
                        continue
                    v0 = elems[pos_of_val[0], c] if n > 0 else elems[top0, c]
                    same = True
                    for val in range(top_cnt):
                        if elems[pos_of_val[val], c] != v0:
                            same = False
                            break
                    if same:
                        g2[c] = v0
                        continue
                    found = False
                    for i2 in range(jz):
                        match = True
                        for val in range(top_cnt):
                            dig = val
                            for _ in range(n - 1 - i2):
                                dig //= k
                            dig %= k
                            if elems[pos_of_val[val], c] != dig:
                                match = False
                                break
                        if match:
                            g2[c] = k + i2
                            found = True
                            break
                    if not found:
                        ok = False
                        break
                if ok:
                    for c in range(length):
                        if g2[c] != gbuf[c]:
                            ok = False
                            break
                if not ok:
                    mismatches += 1
                    if bad_code < 0:
                        bc = 0
                        for c in range(length):
                            bc = bc * (k + 2) + code[c]
                        bad_code = bc
            # odometer
            pos = length - 1
            while pos >= 0 and code[pos] == k + 1:
                code[pos] = 0
                pos -= 1
            if pos < 0:
                break
            code[pos] += 1
    return n_gen, n_elems, mismatches, bad_code


def _roundtrip_batch(k, g, n):
    """Instantiate and reconstruct generators that all have n variables.

    g holds one generator per row.  Returns, per generator, whether the
    reconstruction gave it back exactly.  The loop's search for a
    variable pattern is limited to variables introduced by then; a
    column can only fit the pattern of the variable that sits there,
    so the limit is left out.
    """
    cnt, length = g.shape
    top = k**n
    digits = _digit_table(k, n).astype(g.dtype)
    isvar = g >= k
    # top level, pattern value ascending; the lower levels are its
    # prefixes up to the cuts
    e = np.where(isvar[:, :, None], digits[np.where(isvar, g - k, 0)], g[:, :, None])
    if n == 0:
        return (e[:, :, 0] == g).all(axis=1)
    gv = np.where(isvar, g - k, -1)
    seen = np.maximum.accumulate(gv, axis=1)
    is_cut = gv > np.concatenate([np.full((cnt, 1), -1, gv.dtype), seen[:, :-1]], axis=1)
    cuts = np.nonzero(is_cut)[1].reshape(cnt, n)
    # ---- reconstruction from elements only ----
    val = np.zeros((cnt, top), np.int64)
    for i2 in range(n):
        val = val * k + np.take_along_axis(e, cuts[:, i2, None, None], axis=1)[:, 0]
    pos_of_val = np.zeros((cnt, top), np.int64)
    np.put_along_axis(pos_of_val, val, np.broadcast_to(np.arange(top), val.shape), axis=1)
    if not (pos_of_val == np.arange(top)).all():
        e = np.take_along_axis(e, pos_of_val[:, None, :], axis=2)
    same = (e == e[:, :, :1]).all(axis=2)
    # at most one variable's pattern fits a column: the one whose unit
    # pattern value reads 1 where pattern value 0 reads 0
    units = e[:, :, k ** np.arange(n - 1, -1, -1)]
    cand = ((units == 1) & (e[:, :, :1] == 0)).argmax(axis=2)
    found = (e == digits[cand]).all(axis=2)
    g2 = np.where(is_cut, k + seen, np.where(same, e[:, :, 0], k + cand))
    return (is_cut | same | found).all(axis=1) & (g2 == g).all(axis=1)


def tree_roundtrip_sweep(k, max_len, lo_len, hi_len):
    """Numpy form of ``tree_roundtrip_sweep_py``: same arguments, same return value.

    Decodes the base-(k+2) codes of each length in chunks, in code
    order, and hands the generators to ``_roundtrip_batch`` grouped by
    variable count.
    """
    n_gen = n_elems = mismatches = 0
    bad_code = -1
    base = k + 2
    dt = _int_dtype(-1, k + max(hi_len, 0))
    for length in range(lo_len, hi_len + 1):
        total = base**length
        step = max(1, _CHUNK // max(length, 1))
        for c0 in range(0, total, step):
            code = np.arange(c0, min(c0 + step, total))
            d = np.empty((len(code), length), dt)
            rest = code.copy()
            for c in range(length - 1, -1, -1):
                d[:, c] = rest % base
                rest //= base
            nv = np.cumsum(d == k + 1, axis=1, dtype=dt)
            keep = ~((d == k) & (nv == 0)).any(axis=1)
            code, d, nv = code[keep], d[keep], nv[keep]
            g = np.where(d < k, d, nv + (k - 1))
            n_of = nv[:, -1] if length else np.zeros(len(code), np.int64)
            ok = np.empty(len(code), bool)
            for n in np.flatnonzero(np.bincount(n_of)).tolist():
                rows = np.flatnonzero(n_of == n)
                n_gen += len(rows)
                n_elems += len(rows) * sum(k**j for j in range(n + 1))
                per = max(1, _CHUNK // (max(length, 1) * k**n))
                for r0 in range(0, len(rows), per):
                    sel = rows[r0 : r0 + per]
                    ok[sel] = _roundtrip_batch(k, g[sel], n)
            mismatches += int((~ok).sum())
            if bad_code < 0 and not ok.all():
                bad_code = int(code[~ok][0])
    return n_gen, n_elems, mismatches, bad_code


# ---------------------------------------------------------------------------
# line-with-letter sweep over all 2-colorings (any k, horizon fixed by tables)


def line_letter_coloring_sweep_py(cert_words, n_bits, lo, hi, out_found):
    """For each coloring bitmask in [lo, hi), mark whether some certificate
    triple (rank indices into the coloring) is monochromatic."""
    n_certs = cert_words.shape[0]
    width = cert_words.shape[1]
    for f in range(lo, hi):
        hit = 0
        for t in range(n_certs):
            c0 = (f >> cert_words[t, 0]) & 1
            ok = 1
            for q in range(1, width):
                if (f >> cert_words[t, q]) & 1 != c0:
                    ok = 0
                    break
            if ok == 1:
                hit = 1
                break
        out_found[f - lo] = hit
    return 0


# plane r of the colorings 0..63: bit i set where bit r of i is
_LANE_PLANES = [sum(1 << i for i in range(64) if i >> r & 1) for r in range(6)]


def line_letter_coloring_sweep(cert_words, n_bits, lo, hi, out_found):
    """Bit-sliced form of ``line_letter_coloring_sweep_py``: same arguments, same output.

    The colorings f are held as n_bits bit planes: plane r holds bit r
    of every f, 64 colorings per uint64 lane, lanes starting at
    multiples of 64 (Biham, FSE 1997).  Planes 0-5 repeat in every lane;
    plane r >= 6 is all ones or all zeros per lane.  A triple is
    monochromatic in the lanes where the XNOR of its first plane with
    each other plane is set; any triple sets the hit lane.
    """
    for a in range(lo - lo % 64, hi, _CHUNK):  # _CHUNK is a multiple of 64
        b = min(a + _CHUNK, hi)
        lane = np.arange(a >> 6, (b + 63) >> 6, dtype=np.int64)
        planes = np.empty((n_bits, len(lane)), np.uint64)
        for r in range(n_bits):
            if r < 6:
                planes[r] = _LANE_PLANES[r]
            else:
                planes[r] = -((lane >> (r - 6)) & 1).astype(np.uint64)
        hit = np.zeros(len(lane), np.uint64)
        for t in cert_words:
            first = planes[t[0]]
            same = ~np.zeros_like(hit)
            for q in t[1:]:
                same &= ~(planes[q] ^ first)
            hit |= same
        found = np.unpackbits(hit.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        s = max(a, lo)
        out_found[s - lo : b - lo] = found[s - a : b - a]
    return 0


# ---------------------------------------------------------------------------
# coded-graph kernels


def henson_adjacency_loops_py(bits, lens, out):
    v = bits.shape[0]
    for i in range(v):
        for j in range(v):
            if lens[i] < lens[j]:
                if (bits[j] >> lens[i]) & 1 == 1 and (bits[i] & bits[j]) == 0:
                    out[i, j] = 1
                    out[j, i] = 1
    return 0


def henson_triangle_scan_py(packed, ei, ej):
    """AND the packed neighbour rows of every edge; first common bit wins."""
    words = packed.shape[1]
    for e in range(ei.shape[0]):
        i = ei[e]
        j = ej[e]
        for w in range(words):
            both = packed[i, w] & packed[j, w]
            if both != 0:
                b = 0
                while (both >> np.uint64(b)) & np.uint64(1) == np.uint64(0):
                    b += 1
                return i, j, w * 64 + b
    return -1, -1, -1


def _pack_into(out: np.ndarray, a: int, rows: np.ndarray) -> None:
    """Pack 0/1 rows into out[a : a + len(rows)], one bit per column."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    out.view(np.uint8)[a : a + len(rows), : packed.shape[1]] = packed


def pack_rows(adj: np.ndarray) -> np.ndarray:
    """Pack a 0/1 adjacency matrix into per-row uint64 bitsets.

    Bit c % 64 of word c // 64 of row i is adj[i, c].
    """
    v, cols = adj.shape
    out = np.zeros((v, (cols + 63) // 64), "<u8")
    _pack_into(out, 0, adj)
    return out


def henson_adjacency_packed(bits: np.ndarray, lens: np.ndarray):
    """Packed adjacency rows and upper-triangle edge list of the coded graph.

    The rule is ``henson_adjacency_loops_py``'s, for vertices with
    bits[i] < 2**lens[i]: then bit lens[i] of bits[j] can be set only
    when lens[i] < lens[j], so the length test is implied.  Rows are
    computed ``_ROW_BLOCK`` cells at a time and packed as ``pack_rows``
    packs them.  Returns (packed, ei, ej), the edges (ei < ej) in
    row-major order.
    """
    v = len(bits)
    dt = _int_dtype(0, int(bits.max(initial=1)))
    b = bits.astype(dt)
    ln = lens.astype(dt)
    packed = np.zeros((v, (v + 63) // 64), "<u8")
    ei, ej = [], []
    step = max(1, min(v, _ROW_BLOCK // max(v, 1)))
    above = np.triu(np.ones((step, step), bool), 1)
    for a in range(0, v, step):
        r = slice(a, min(a + step, v))
        passing = ((b[None, :] >> ln[r, None]) | (b[r, None] >> ln[None, :])) & 1
        adj = (passing != 0) & ((b[r, None] & b[None, :]) == 0)
        _pack_into(packed, a, adj)
        # the block's edges to columns j > i, row by row
        upper = adj[:, a:]
        nb = upper.shape[0]
        upper[:, :nb] &= above[:nb, :nb]
        flat = np.flatnonzero(upper)
        ei.append((flat // upper.shape[1] + a).astype(np.int32))
        ej.append((flat % upper.shape[1] + a).astype(np.int32))
    ei = np.concatenate(ei) if ei else np.zeros(0, np.int32)
    ej = np.concatenate(ej) if ej else np.zeros(0, np.int32)
    return packed, ei, ej


def henson_triangle_packed(packed, ei, ej):
    """Chunked form of ``henson_triangle_scan_py``: same arguments, same return value.

    ANDs the packed rows of ``_EDGE_CHUNK`` // words edges at a time.
    The first edge in list order whose rows share a bit wins, with its
    lowest common neighbour u; -1s when no edge has one.
    """
    words = packed.shape[1]
    step = max(1, _EDGE_CHUNK // max(words, 1))
    lhs = np.empty((min(step, len(ei)), words), packed.dtype)
    rhs = np.empty_like(lhs)
    for a in range(0, len(ei), step):
        n = min(step, len(ei) - a)
        both, other = lhs[:n], rhs[:n]
        np.take(packed, ei[a : a + n], axis=0, out=both)
        np.take(packed, ej[a : a + n], axis=0, out=other)
        np.bitwise_and(both, other, out=both)
        if both.any():
            e = int(both.any(axis=1).argmax())
            w = int(np.flatnonzero(both[e])[0])
            x = int(both[e, w])
            return int(ei[a + e]), int(ej[a + e]), w * 64 + (x & -x).bit_length() - 1
    return -1, -1, -1
