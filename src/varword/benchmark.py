"""Timing of each numpy kernel against its plain-loop reference.

Run as ``python -m varword.benchmark``.  Every kernel in
``varword._kernels`` runs as numpy; each row times it against the loop
it is tested against (``*_py``), and the two outputs are asserted equal
while timing.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import _kernels
from .largeness import FiniteFamily
from .sweeps import _vertex_arrays, build_prefix_table, line_letter_certs


def _time(fn, *args, repeat: int = 1):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m varword.benchmark")
    ap.add_argument("--assoc-len", type=int, default=4)
    ap.add_argument("--tree-len", type=int, default=7)
    ap.add_argument("--henson-horizon", type=int, default=9)
    ap.add_argument("--sweep-horizon", type=int, default=3)
    args = ap.parse_args(argv)
    rows = []  # (kernel, numpy seconds, loop seconds)

    t = build_prefix_table(2, args.assoc_len)
    m = len(t)
    tn, rn = _time(_kernels.assoc_sweep, t.syms, t.lens, t.focc, 2, 0, m, args.assoc_len)
    tp, rp = _time(_kernels.assoc_sweep_py, t.syms, t.lens, t.focc, 2, 0, m, args.assoc_len)
    assert rn == rp
    rows.append((f"associativity sweep (len<={args.assoc_len}, {m} words)", tn, tp))

    tn, rn = _time(_kernels.tree_roundtrip_sweep, 2, args.tree_len, 0, args.tree_len)
    tp, rp = _time(_kernels.tree_roundtrip_sweep_py, 2, args.tree_len, 0, args.tree_len)
    assert rn == rp
    rows.append((f"tree roundtrip sweep (len<={args.tree_len})", tn, tp))

    certs, _meta = line_letter_certs(2, args.sweep_horizon)
    n_bits = FiniteFamily.empty(2, args.sweep_horizon).universe_size
    total = 1 << n_bits
    out_n = np.zeros(total, np.uint8)
    out_p = np.zeros(total, np.uint8)
    tn, _ = _time(_kernels.line_letter_coloring_sweep, certs, n_bits, 0, total, out_n)
    tp, _ = _time(_kernels.line_letter_coloring_sweep_py, certs, n_bits, 0, total, out_p)
    assert (out_n == out_p).all()
    rows.append((f"coloring sweep (2^{n_bits} colorings)", tn, tp))

    bits, lens = _vertex_arrays(args.henson_horizon)
    v = len(bits)
    out_p = np.zeros((v, v), np.uint8)
    tn, (packed, ei, ej) = _time(_kernels.henson_adjacency_packed, bits, lens)
    tp, _ = _time(_kernels.henson_adjacency_loops_py, bits, lens, out_p)
    assert (_kernels.pack_rows(out_p) == packed).all()
    assert all((a == b).all() for a, b in zip(np.nonzero(np.triu(out_p)), (ei, ej)))
    rows.append((f"graph adjacency ({v} vertices)", tn, tp))

    tn, rn = _time(_kernels.henson_triangle_packed, packed, ei, ej)
    tp, rp = _time(_kernels.henson_triangle_scan_py, packed, ei, ej)
    assert tuple(map(int, rn)) == tuple(map(int, rp))
    rows.append((f"triangle scan ({len(ei)} edges)", tn, tp))

    name_w = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{name_w}}  {'numpy':>10}  {'loop':>10}  {'speedup':>8}")
    for name, t_numpy, t_loop in rows:
        print(f"{name:<{name_w}}  {t_numpy:>9.3f}s  {t_loop:>9.3f}s  {t_loop / t_numpy:>7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
