"""sweep-batteries: the exhaustive batteries at workers=1.

Why this workload: the batteries run one step below the acceptance
criteria's sizes, where _kernels and sweeps do nearly all the work; it
is the target of the array-kernel rewrite.  search, largeness,
certificates and cli sit idle here, so for changes to those layers the
prediction on this workload is no change.

The batteries are exhaustive, so their results are fixed constants; the
seed only shuffles the order in which they run.  The two short
batteries run several times per pass so that their medians are steady.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

from common import need
from varword import sweeps, words

REPEATS = {"assoc": 1, "tree_roundtrip": 1, "coloring_sweep": 5, "triangle_scan": 3, "decompose": 1}

# exact results of each battery at this size
ASSOC = dict(k=2, max_len=5, checked=769_401)
TREE = dict(k=2, max_len=8, generators=43_946, elements=607_436)
COLORINGS = dict(k=2, horizon=3, total=32_768, found=31_526)
HENSON = dict(horizon=10, vertices=2_036, edges=77_309)
DECOMPOSE = dict(max_len=7, alphabets=(1, 2, 3), words=63_162)


def make_specs(seed: int, pass_index: int) -> list:
    rng = random.Random(f"sweep-batteries:{seed}:{pass_index}")
    specs = [name for name, count in REPEATS.items() for _ in range(count)]
    rng.shuffle(specs)
    return specs


def _assoc():
    return sweeps.assoc_exhaustive(ASSOC["k"], ASSOC["max_len"], workers=1)


def _check_assoc(status, res):
    need(res.checked == ASSOC["checked"] and res.failures == 0, f"assoc sweep gave {res}")
    return [res.words, res.pairs, res.checked, res.failures]


def _tree():
    return sweeps.tree_roundtrip_exhaustive(TREE["k"], TREE["max_len"], workers=1)


def _check_tree(status, res):
    need(
        (res.generators, res.elements, res.mismatches) == (TREE["generators"], TREE["elements"], 0),
        f"tree round trip gave {res}",
    )
    return [res.generators, res.elements, res.mismatches]


def _colorings():
    return sweeps.coloring_sweep(COLORINGS["k"], COLORINGS["horizon"], workers=1)


class _ColoringCheck:
    """Checks the count each time and the exact bitmap against the first one."""

    def __init__(self):
        self.bitmap = None

    def __call__(self, status, found):
        need(len(found) == COLORINGS["total"] and int(found.sum()) == COLORINGS["found"],
             f"coloring sweep found {int(found.sum())} of {len(found)}")
        blob = hashlib.sha256(found.tobytes()).hexdigest()
        need(self.bitmap in (None, blob), "coloring sweep bitmap changed between repeats")
        self.bitmap = blob
        return blob


def _henson():
    return sweeps.henson_triangle_report(HENSON["horizon"])


def _check_henson(status, rep):
    need((rep.vertices, rep.edges) == (HENSON["vertices"], HENSON["edges"]), f"triangle scan gave {rep}")
    return [rep.vertices, rep.edges]


def _decompose():
    bad = total = 0
    for k in DECOMPOSE["alphabets"]:
        for w in words.var_words(k, DECOMPOSE["max_len"], ordered=True):
            sigma, blocks = words.decompose(w)
            if words.recompose(sigma, blocks) != w:
                bad += 1
            total += 1
    return total, bad


def _check_decompose(status, res):
    need(res == (DECOMPOSE["words"], 0), f"decompose/recompose gave (words, mismatches) = {res}")
    return list(res)


def run_pass(specs, p):
    """Runs the pass; returns the work done, for the per-layer rates."""
    ops = {
        "assoc": (_assoc, _check_assoc),
        "tree_roundtrip": (_tree, _check_tree),
        "coloring_sweep": (_colorings, _ColoringCheck()),
        "triangle_scan": (_henson, _check_henson),
        "decompose": (_decompose, _check_decompose),
    }
    for name in specs:
        fn, check = ops[name]
        p.op(name, fn, check)
    return SimpleNamespace(
        work={
            "checks": specs.count("assoc") * ASSOC["checked"],
            "elements": specs.count("tree_roundtrip") * TREE["elements"],
            "colorings": specs.count("coloring_sweep") * COLORINGS["total"],
        },
        edges=specs.count("triangle_scan") * HENSON["edges"],
    )

