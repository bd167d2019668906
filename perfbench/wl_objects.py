"""object-search: a seeded mix of small requests on the Word-object route.

Why this workload: here words, trees, largeness, colorings, search,
prehomog, cdrt, henson and certificates do the work and the array
kernels are bypassed.  Every line search at one (k, N) walks the same
candidate generators while its coloring is fresh, so in-process reuse or
caching would show here.  Exhausted searches and emit-then-verify use
the same layers in opposite ways, and builder traces form the tail.

Each pass draws fresh inputs from (seed, pass index) and runs one
closed loop from one client: the next request starts when the previous
one has returned.
"""

from __future__ import annotations

import json
import random

import naive
from common import digest, need
from varword import (
    cdrt,
    certificates,
    cli,
    colorings,
    henson,
    largeness,
    prehomog,
    search,
    words,
)

K = 2
IDENT = tuple(range(K, K + 8))  # x0 x1 ... x7
TRIPLES_PER_OP = 25

# Requests per pass, by kind; every emitted certificate adds one verify
# request.  The counts are set by hand, not derived from observed usage
# (there is no usage record of this engine), so the mix is unverified as
# real traffic.  The rules they follow: every kind appears in every pass;
# each kind has at least 6 requests a pass, so that a run's passes hold
# dozens of samples of it for its own p50; each sub-case has at least 3
# (line searches split evenly over N = 3, 4, 5, csl over N = 3, 4,
# prehomog over stem-only and random colorings); line searches, where
# reuse between requests would show, are the largest kind; and with its
# verifies a pass makes about 300 requests, above the 200 that put ten
# samples beyond p95.  The costly kinds (builder, exhausted searches)
# are few, yet builder requests take about half of a pass's time and
# the verifies about a third, so those two kinds dominate wall_s.
MIX = {
    "triple": 40,
    "line": 48,
    "csl": 12,
    "prehomog": 6,
    "builder": 6,
    "split": 12,
    "brown": 12,
    "cdrt": 12,
    "envelope": 24,
    "embed": 24,
}
# exhausting colorings per horizon: a quarter of the line searches, so the
# exhausted path has its own tail; none at N = 5, where every 2-coloring
# admits a line with letter (naive.defeating_coloring finds none)
LINE_EXHAUSTED = {3: 6, 4: 6}


def _triple(rng):
    while True:
        w = naive.random_prefix_valid(rng, K, rng.randrange(13))
        v = naive.random_prefix_valid(rng, K, rng.randrange(13))
        u = tuple(rng.randrange(K) for _ in range(rng.randrange(7)))
        inner = naive.subst(v, K, u)
        lhs = None if inner is None else naive.subst(w, K, inner)
        if lhs is not None:
            return [w, v, u, lhs]


def _random_coloring(rng, n, admits: bool):
    while True:
        col = {w: rng.randrange(2) for w in naive.words_upto(K, n)}
        if (naive.first_line(col, K, n) is not None) == admits:
            return col


def _unary(rng):
    length = rng.randrange(6)
    return tuple(rng.randrange(2) for _ in range(length))


def _stratified(rng, count, lo, hi):
    """`count` uniform draws from [lo, hi], one from each of `count` equal slices, in random order.

    Whether the builder succeeds depends mostly on its two densities (in
    80 draws, none with a syndetic density below 0.85 succeeded and about
    half above it did), and a success adds the verification of its
    certificate.  Independent draws would let one pass land all
    low and the next all high; one draw per slice keeps the number of
    successes, and so the pass time, steadier at the same distribution.
    """
    slots = rng.sample(range(count), count)
    return [lo + (hi - lo) * (slot + rng.random()) / count for slot in slots]


def make_specs(seed: int, pass_index: int) -> list:
    """Plain-data requests of one pass, in the order they are sent."""
    rng = random.Random(f"object-search:{seed}:{pass_index}")
    specs = []
    for _ in range(MIX["triple"]):
        specs.append(["triple", [_triple(rng) for _ in range(TRIPLES_PER_OP)]])
    exhausted = [n for n, count in LINE_EXHAUSTED.items() for _ in range(count)]
    for i in range(MIX["line"]):
        if i < len(exhausted):
            col = naive.defeating_coloring(rng, K, exhausted[i])
        else:
            col = _random_coloring(rng, 3 + i % 3, admits=True)
        specs.append(["line", sorted(col.items())])
    for i in range(MIX["csl"]):
        col = {w: rng.randrange(2) for w in naive.words_upto(K, 3 + i % 2)}
        specs.append(["csl", sorted(col.items())])
    for i in range(MIX["prehomog"]):
        # even requests color by the stem alone (prehomogeneous), odd ones at random
        salt = rng.randrange(1 << 30)
        specs.append(["prehomog", [i % 2 == 0, salt]])
    for kind, n, lo, hi in (("builder", 12, 0.75, 0.98), ("split", 8, 0.3, 0.95), ("brown", 8, 0.5, 0.95)):
        count = MIX[kind]
        for p_s, p_t in zip(_stratified(rng, count, lo, hi), _stratified(rng, count, lo, hi)):
            dec = largeness.random_piecewise_syndetic(rng, K, n, 1, 2, p_s, p_t)
            part = dec.part.mask
            if kind == "split":
                extra = sum(1 << r for r in range(part.bit_length()) if part >> r & 1 and rng.random() < 0.5)
            elif kind == "brown":
                cut1, cut2 = sorted(rng.sample(range(dec.part.universe_size), 2))
                extra = [cut1, cut2]
            else:
                extra = None
            specs.append([kind, [n, dec.syndetic.mask, dec.thick.mask, extra]])
    for _ in range(MIX["cdrt"]):
        specs.append(["cdrt", sorted({w: rng.randrange(2) for w in naive.words_upto(K, 5)}.items())])
    for _ in range(MIX["envelope"]):
        s0 = _unary(rng)
        s1 = _unary(rng)
        while s1 == s0:
            s1 = _unary(rng)
        specs.append(["envelope", [s0, s1]])
    for _ in range(MIX["embed"]):
        n, edges = naive.random_triangle_free(rng)
        specs.append(["embed", [n, sorted(edges)]])
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# requests


def _word(k, syms):
    return words.Word(k, tuple(syms))


def _coloring(items, n_horizon):
    table = {_word(K, w): c for w, c in items}
    return colorings.Coloring(K, n_horizon, 0, 2, table)


def _prehomog_coloring(stem_only: bool, salt: int):
    def color(t):
        head = []
        for s in t.symbols:
            if s >= K:
                break
            head.append(s)
        key = tuple(head) if stem_only else t.symbols
        return hash((salt,) + key) & 1

    table = {w: color(w) for w in words.var_words(K, 6, dim=1)}
    return colorings.Coloring(K, 6, 1, 2, table), {w.symbols: c for w, c in table.items()}


def _decomposition(n, s_mask, t_mask):
    return largeness.PwSyndeticDecomposition(
        largeness.FiniteFamily(K, n, s_mask), largeness.FiniteFamily(K, n, t_mask), 1
    )


class Session:
    """Runs one pass's requests and checks each outcome."""

    def __init__(self, p):
        self.p = p
        self.checked_count = 0
        self.json_bytes = 0
        self.line_found = 0
        self.line_total = 0
        self.builder_found = 0
        self.builder_total = 0

    def emit(self, text: str):
        """Verify an emitted certificate's canonical JSON as its own request."""
        doc = json.loads(text)
        self.checked_count += doc["checked_count"]
        self.json_bytes += len(text.encode())

        def check(status, res):
            need(res.ok and res.kind == doc["kind"], f"{doc['kind']} certificate fails: {res.detail}")
            return [res.kind, res.detail]

        self.p.op("verify", lambda: certificates.verify_certificate(json.loads(text)), check)

    def run(self, spec):
        kind, arg = spec
        getattr(self, "_" + kind)(arg)

    def _triple(self, triples):
        objs = [[_word(K, w), _word(K, v), _word(K, u), lhs] for w, v, u, lhs in triples]

        def fn():
            return [
                (
                    words.substitute(w, words.substitute(v, u, omega=True), omega=True),
                    words.substitute(words.compose(w, v), u, omega=True),
                )
                for w, v, u, _ in objs
            ]

        def check(status, res):
            for (lhs, rhs), (*_, want) in zip(res, triples):
                need(lhs.symbols == rhs.symbols == tuple(want), "w[v[u]] != compose(w, v)[u]")
            return len(res)

        self.p.op("triple", fn, check)

    def _line(self, items):
        table = dict((tuple(w), c) for w, c in items)
        n = max(len(w) for w in table)
        coloring = _coloring(items, n)
        expected = naive.first_line(table, K, n)

        def fn():
            cert = search.search_line_with_letter(coloring)
            search.verify_line_letter(cert, coloring)
            return certificates.canonical_json(cli.line_letter_certificate_doc(coloring, cert))

        def check(status, text):
            if status == "not-found":
                need(expected is None, f"search exhausted but {expected} is monochromatic")
                return "not-found"
            w = json.loads(text)["witness"]
            got = (tuple(w["generator"]["symbols"]), w["letter"], w["color"])
            need(got == expected, f"found {got}, naive first candidate {expected}")
            return digest(text)

        status, text = self.p.op("line", fn, check)
        self.line_total += 1
        if status == "ok":
            self.line_found += 1
            self.emit(text)

    def _csl(self, items):
        n = max(len(w) for w, _ in items)
        coloring = _coloring(items, n)
        table = dict((tuple(w), c) for w, c in items)

        def fn():
            cert = prehomog.csl_search(coloring, 1)
            return certificates.canonical_json(cli.csl_certificate_doc(coloring, cert))

        def check(status, text):
            if status == "not-found":
                return "not-found"
            w = json.loads(text)["witness"]
            word = tuple(w["word"]["symbols"])
            for u in naive.words_upto(K, 1):
                img = naive.subst(word, K, u)
                need(img is not None and table[img] == w["color"], f"prefix image at {u} off color")
            return digest(text)

        status, text = self.p.op("csl", fn, check)
        if status == "ok":
            self.emit(text)

    def _prehomog(self, arg):
        stem_only, salt = arg
        coloring, table = _prehomog_coloring(stem_only, salt)
        w = _word(K, IDENT)

        def check(status, rep):
            if stem_only:
                need(rep.ok and rep.checked > 0, "stem-determined coloring reported not prehomogeneous")
            elif not rep.ok:
                s, t0, t1 = rep.counterexample
                c0 = table[naive.subst(IDENT, K, t0.symbols)]
                c1 = table[naive.subst(IDENT, K, t1.symbols)]
                need(c0 != c1, "counterexample pair has one color")
            return [rep.ok, rep.checked]

        self.p.op("prehomog", lambda: prehomog.prehomog_check(w, coloring, 2, 2), check)

    def _builder(self, arg):
        n, s_mask, t_mask, _ = arg
        dec = _decomposition(n, s_mask, t_mask)

        def fn():
            trace = search.iterate_builder(dec, 2)
            return trace, certificates.canonical_json(cli.builder_certificate_doc(dec, trace))

        def check(status, res):
            if status == "not-found":
                return "not-found"
            trace, text = res
            need(trace.tree.dimension == 2, "builder tree is not two-dimensional")
            need(all(st.claim1_ok and st.claim2_ok for st in trace.stages), "builder claim failed")
            return digest(text)

        status, res = self.p.op("builder", fn, check)
        self.builder_total += 1
        if status == "ok":
            self.builder_found += 1
            self.emit(res[1])

    def _split(self, arg):
        n, s_mask, t_mask, b_mask = arg
        dec = _decomposition(n, s_mask, t_mask)
        b = largeness.FiniteFamily(K, n, b_mask)
        c = dec.part - b

        def check(status, res):
            need(res.identity_b and res.identity_c, "split identities failed")
            chosen = b_mask if res.side == "B" else c.mask
            need(res.chosen.mask == chosen, "chosen side is not the named part")
            need(res.decomposition.part.mask == chosen, "new decomposition misses the chosen part")
            return [res.side, res.chosen.mask]

        self.p.op("split", lambda: largeness.pw_split(dec, b, c), check)

    def _brown(self, arg):
        n, s_mask, t_mask, (cut1, cut2) = arg
        dec = _decomposition(n, s_mask, t_mask)
        part = dec.part.mask
        masks = [0, 0, 0]
        for r in range(part.bit_length()):
            if part >> r & 1:
                masks[0 if r < cut1 else 1 if r < cut2 else 2] |= 1 << r
        parts = [largeness.FiniteFamily(K, n, m) for m in masks]

        def check(status, sel):
            if status == "not-found":
                return "not-found"
            need(sel.decomposition.part.mask == masks[sel.index], "selected part identity failed")
            need(sel.index in sel.subset, "selected index outside its subset")
            return [sel.index, list(sel.subset)]

        self.p.op("brown", lambda: largeness.brown_select(dec, parts), check)

    def _cdrt(self, items):
        coloring = _coloring(items, 5)
        table = dict((tuple(w), c) for w, c in items)

        def fn():
            translated = cdrt.translate(coloring)
            inner = prehomog.csl_search(translated, K + 1, max_len=5)
            pb = cdrt.pullback_certificate(inner, coloring, depth=1)
            return pb, certificates.canonical_json(cli.cdrt_certificate_doc(coloring, pb, 1, inner.word))

        def check(status, res):
            if status == "not-found":
                return "not-found"
            pb, text = res
            word = pb.word.symbols
            for u, img in pb.checked:
                need(naive.subst(word, K, u.symbols) == img.symbols, "stale pullback pair")
                need(table[img.symbols] == pb.color, "pullback image off color")
            return digest(text)

        status, res = self.p.op("cdrt", fn, check)
        if status == "ok":
            self.emit(res[1])

    def _envelope(self, members):
        objs = [_word(1, m) for m in members]

        def fn():
            env = henson.minimal_envelope(objs)
            return env, certificates.canonical_json(cli.envelope_certificate_doc(objs, env))

        def check(status, res):
            env, text = res
            need(env.variable_count <= env.bound, "envelope above its bound")
            for m, t in env.assignments:
                need(naive.subst(env.word.symbols, 1, t.symbols, omega=False) == m.symbols, "assignment misses member")
            need(sorted(m.symbols for m, _ in env.assignments) == sorted(members), "members not all covered")
            return digest(text)

        status, res = self.p.op("envelope", fn, check)
        if status == "ok":
            self.emit(res[1])

    def _embed(self, arg):
        n, edges = arg
        edge_set = {tuple(e) for e in edges}
        g = henson.GraphSpec.from_pairs(n, edge_set)

        def fn():
            images = henson.greedy_embed(g, 12)
            return images, certificates.canonical_json(cli.embedding_certificate_doc(g, images, "greedy", 12))

        def check(status, res):
            images, text = res
            syms = [im.symbols for im in images]
            need(all(len(a) < len(b) for a, b in zip(syms, syms[1:])), "image lengths not increasing")
            for i in range(n):
                for j in range(i + 1, n):
                    need(naive.edge(syms[i], syms[j]) == ((i, j) in edge_set), f"edge ({i},{j}) not preserved")
            return digest(text)

        status, res = self.p.op("embed", fn, check)
        if status == "ok":
            self.emit(res[1])


def run_pass(specs, p):
    session = Session(p)
    for spec in specs:
        session.run(spec)
    return session



def exhausting_coloring(seed: int):
    """A coloring on which the line search exhausts its horizon (for the workers probe)."""
    rng = random.Random(f"object-search:workers:{seed}")
    return _coloring(sorted(naive.defeating_coloring(rng, K, 4).items()), 4)
