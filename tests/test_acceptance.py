"""Acceptance battery.

One test per criterion; each prints a single pass/fail line with its
runtime (run ``pytest tests/test_acceptance.py -v -s`` to see them).
Tolerances are exact everywhere; runtime budgets are asserted against
the wall clock.
"""

import json
import random
import time
from itertools import combinations

from conftest import all_graphs, random_letters, random_prefix_valid
from varword import certificates as certs
from varword.cdrt import decode_word, encode_word, pullback_certificate, translate
from varword.cli import (
    builder_certificate_doc,
    csl_certificate_doc,
    line_letter_certificate_doc,
)
from varword.colorings import Coloring
from varword.errors import CutPointMissing, NotFoundWithinHorizon
from varword.henson import (
    edge,
    edge_invariance,
    greedy_embed,
    minimal_envelope,
)
from varword.largeness import (
    FiniteFamily,
    brown_select,
    is_syndetic,
    is_thick,
    pw_split,
    random_piecewise_syndetic,
)
from varword.prehomog import csl_search
from varword.search import iterate_builder, search_line_with_letter, verify_line_letter
from varword.sweeps import coloring_sweep, henson_adjacency, henson_triangle_report
from varword.sweeps import assoc_exhaustive, tree_roundtrip_exhaustive
from varword.trees import level, tree_from_generator
from varword.words import (
    Word,
    compose,
    decompose,
    format_word,
    is_var_word,
    parse_word,
    recompose,
    substitute,
    var_words,
)

K = 2


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        in_budget = dt < self.seconds
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"[{status}] {self.name} ({dt:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert in_budget, f"{self.name} exceeded its budget"
        return False


def test_criterion_01_paper_example_fidelity():
    with _Budget("1 paper-example fidelity", 1):
        w = parse_word("01x0 10x1 01x0 001x2", K)
        assert format_word(substitute(w, Word(K, ()), omega=True)) == "01"
        assert format_word(substitute(w, Word(K, (0,)), omega=True)) == "01010"
        assert format_word(substitute(w, Word(K, (0, 1)), omega=True)) == "010101010001"
        tree = tree_from_generator(parse_word("10x0 01x0 10", K))
        assert [format_word(e) for e in tree.elements] == [
            "10",
            "10001010",
            "10101110",
        ]
        assert [format_word(e) for e in level(tree, 0)] == ["10"]
        assert sorted(format_word(e) for e in level(tree, 1)) == [
            "10001010",
            "10101110",
        ]


def test_criterion_02_substitution_algebra():
    with _Budget("2 substitution algebra", 30):
        rng = random.Random(2024)
        checked = 0
        while checked < 10_000:
            w = random_prefix_valid(rng, K, rng.randrange(13))
            v = random_prefix_valid(rng, K, rng.randrange(13))
            u = random_letters(rng, K, rng.randrange(7))
            try:
                lhs = substitute(w, substitute(v, u, omega=True), omega=True)
            except CutPointMissing:
                continue
            rhs = substitute(compose(w, v), u, omega=True)
            assert lhs == rhs
            checked += 1

        res = assoc_exhaustive(K, 6, workers=4)
        assert res.failures == 0 and res.checked > 10**7

        for k in (1, 2, 3):
            for w in var_words(k, 8, ordered=True):
                sigma, blocks = decompose(w)
                assert recompose(sigma, blocks) == w


def test_criterion_03_tree_correspondence():
    with _Budget("3 tree correspondence", 60):
        res = tree_roundtrip_exhaustive(K, 10, workers=4)
        assert res.mismatches == 0
        assert res.generators == 700_074  # all ordered generators, |w| <= 10


def test_criterion_04_largeness_identities():
    with _Budget("4 largeness set identities", 60):
        rng = random.Random(404)
        full = FiniteFamily.full(K, 8)
        for _ in range(1000):
            dec = random_piecewise_syndetic(
                rng, K, 8, 1, 2, rng.uniform(0.3, 0.95), rng.uniform(0.3, 0.95)
            )
            p = dec.part
            bmask = 0
            m = p.mask
            r = 0
            while m:
                if m & 1 and rng.random() < 0.5:
                    bmask |= 1 << r
                m >>= 1
                r += 1
            b = FiniteFamily(K, 8, bmask)
            res = pw_split(dec, b, p - b)
            assert res.identity_b and res.identity_c

        selected = 0
        for _ in range(60):
            dec = random_piecewise_syndetic(
                rng, K, 8, 1, 2, rng.uniform(0.5, 0.95), rng.uniform(0.5, 0.95)
            )
            p = dec.part
            cut1, cut2 = sorted(rng.sample(range(p.universe_size), 2))
            masks = [0, 0, 0]
            m, r = p.mask, 0
            while m:
                if m & 1:
                    masks[0 if r < cut1 else 1 if r < cut2 else 2] |= 1 << r
                m >>= 1
                r += 1
            parts = [FiniteFamily(K, 8, x) for x in masks]
            try:
                sel = brown_select(dec, parts)
            except Exception:
                continue
            new = sel.decomposition
            assert is_syndetic(new.syndetic, dec.ell).ok
            assert is_thick(new.thick, dec.ell).ok
            assert new.part.mask == parts[sel.index].mask
            selected += 1
        assert selected >= 30


def _k1_oracle_has_cert(f, n_hor):
    return any(f[p] == f[L + 1] for L in range(1, n_hor) for p in range(L))


def test_criterion_05_finitary_ovw_oracle_k1():
    with _Budget("5 finitary oracle (k=1)", 300):
        minimal_n = None
        for n_hor in range(1, 9):
            total = 2 ** (n_hor + 1)
            if all(
                _k1_oracle_has_cert([(bits >> i) & 1 for i in range(n_hor + 1)], n_hor)
                for bits in range(total)
            ):
                minimal_n = n_hor
                break
        assert minimal_n is not None
        print(f"  derived minimal horizon for k=1, two colors: N = {minimal_n}")
        # the search kernel certifies every coloring at the oracle's N
        for bits in range(2 ** (minimal_n + 1)):
            f = [(bits >> i) & 1 for i in range(minimal_n + 1)]
            c = Coloring.from_function(1, minimal_n, 0, 2, lambda w: f[len(w)])
            cert = search_line_with_letter(c)
            verify_line_letter(cert, c)
        # and at N - 1 some coloring still defeats it
        short = minimal_n - 1
        defeated = 0
        for bits in range(2 ** (short + 1)):
            f = [(bits >> i) & 1 for i in range(short + 1)]
            c = Coloring.from_function(1, short, 0, 2, lambda w: f[len(w)])
            try:
                search_line_with_letter(c)
            except NotFoundWithinHorizon:
                defeated += 1
        assert defeated > 0


def test_criterion_06_finitary_ovw_sweep_k2():
    with _Budget("6 finitary sweep (k=2)", 600):
        n_hor = 3
        found = coloring_sweep(K, n_hor, workers=8)
        assert len(found) == 2**15
        # independent verifier: derives the certificate triples through the
        # tree module instead of the rank arrays
        fam = FiniteFamily.empty(K, n_hor)
        triples = []
        for g in var_words(K, n_hor - 1, dim=1, ordered=True, min_len=1):
            tree = tree_from_generator(g)
            for a in range(K):
                words = [level(tree, 0)[0]] + [
                    Word(K, w.symbols + (a,)) for w in level(tree, 1)
                ]
                triples.append([fam.rank(w) for w in words])
        mismatch = 0
        for bits in range(len(found)):
            naive = any(
                ((bits >> t[0]) & 1) == ((bits >> t[1]) & 1) == ((bits >> t[2]) & 1)
                for t in triples
            )
            if naive != bool(found[bits]):
                mismatch += 1
        assert mismatch == 0
        frac = int(found.sum()) / len(found)
        print(f"  {int(found.sum())}/{len(found)} colorings admit a certificate ({frac:.4f})")


def test_criterion_07_builder_claims():
    with _Budget("7 builder claims", 120):
        rng = random.Random(7_000)
        successes = 0
        not_found = 0
        for _ in range(100):
            dec = random_piecewise_syndetic(
                rng, K, 12, 1, 2, rng.uniform(0.75, 0.98), rng.uniform(0.75, 0.98)
            )
            try:
                trace = iterate_builder(dec, 2)
            except NotFoundWithinHorizon:
                not_found += 1
                continue
            successes += 1
            assert trace.tree.dimension == 2
            for st in trace.stages:
                assert st.claim1_ok and st.claim2_ok
        print(f"  {successes} traces, {not_found} honest not-found")
        assert successes + not_found == 100
        assert successes >= 10


def test_criterion_08_henson_properties():
    with _Budget("8 coded-graph properties", 300):
        rep = henson_triangle_report(10)
        assert rep.vertices == 2**11 - 12

        verts, adj = henson_adjacency(8)
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()
        rng = random.Random(88)
        for _ in range(2000):
            i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
            assert bool(adj[i, j]) == edge(verts[i], verts[j])

        checked = 0
        while checked < 10_000:
            w = random_prefix_valid(rng, 1, rng.randrange(6, 21))
            u = Word(1, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5))))
            v = Word(1, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5))))
            if not (u.has_variables() and v.has_variables()):
                continue
            try:
                assert edge_invariance(w, u, v)
            except CutPointMissing:
                continue
            checked += 1

        embedded = 0
        for n in range(1, 5):
            for g in all_graphs(n):
                if not g.is_triangle_free():
                    continue
                images = greedy_embed(g, 12)
                for i, j in combinations(range(n), 2):
                    assert edge(images[i], images[j]) == g.adj(i, j)
                embedded += 1
        print(f"  {embedded} graphs embedded")


def test_criterion_09_envelope_bound():
    with _Budget("9 envelope bound", 300):
        pool = []
        for length in range(0, 6):
            for bits in range(2**length):
                pool.append(
                    Word(1, tuple((bits >> (length - 1 - i)) & 1 for i in range(length)))
                )
        assert len(pool) == 63
        worst = 0
        for s in pool:
            env = minimal_envelope([s])
            assert env.variable_count <= 2
            for m, t in env.assignments:
                assert substitute(env.word, t) == m
        for s0, s1 in combinations(pool, 2):
            env = minimal_envelope([s0, s1])
            assert env.variable_count <= env.bound == 5
            worst = max(worst, env.variable_count)
            for m, t in env.assignments:
                assert substitute(env.word, t) == m
        print(f"  largest minimal count over pairs: {worst}")


def test_criterion_10_cdrt_translation():
    with _Budget("10 combinatorial dual translation", 60):
        c = Coloring.from_function(
            K, 4, 1, 2, lambda w: (len(w) + sum(1 for s in w.symbols if s >= K)) % 2
        )
        chat = translate(c)
        count = colored = 0
        for u in var_words(K, 4, dim=1):
            uh = encode_word(u, 1)
            assert (uh in chat) == is_var_word(uh, K + 1)
            if uh in chat:
                assert chat(uh) == c(u)
                colored += 1
            assert decode_word(uh, K, 1) == u
            count += 1
        assert count == 90 and colored == len(chat.colors) == 7
        for uh in chat.domain():
            assert chat(uh) == c(decode_word(uh, K, 1))

        pulled = 0
        for cc in (
            Coloring.constant(K, 5, 0, 2, 1),
            Coloring.from_function(K, 5, 0, 2, lambda w: w[0] if len(w) else 0),
        ):
            try:
                inner = csl_search(translate(cc), K + 1, max_len=5)
            except NotFoundWithinHorizon:
                continue
            pb = pullback_certificate(inner, cc, depth=1)
            for u, img in pb.checked:
                assert cc(img) == pb.color
            pulled += 1
        assert pulled >= 1


def test_criterion_11_determinism():
    with _Budget("11 determinism across runs and workers", 120):
        blobs = {}
        c = Coloring.from_function(K, 5, 0, 2, lambda w: len(w) % 2)
        for _ in range(2):
            cert = search_line_with_letter(c)
            blobs.setdefault("line", []).append(
                certs.canonical_json(line_letter_certificate_doc(c, cert))
            )
        cc = Coloring.constant(K, 4, 0, 2)
        for _ in range(2):
            cert = csl_search(cc, 1)
            blobs.setdefault("csl", []).append(
                certs.canonical_json(csl_certificate_doc(cc, cert))
            )
        rng_seed = 1101
        for _ in range(2):
            rng = random.Random(rng_seed)
            dec = random_piecewise_syndetic(rng, K, 12, 1, 2, 0.95, 0.95)
            trace = iterate_builder(dec, 2)
            blobs.setdefault("builder", []).append(
                certs.canonical_json(builder_certificate_doc(dec, trace))
            )
        for workers in (1, 8):
            blobs.setdefault("sweep", []).append(
                coloring_sweep(K, 3, workers=workers).tobytes()
            )
        for name, (a, b) in blobs.items():
            assert a == b, f"{name} output differs between runs"
        # certificates produced above re-verify
        assert certs.verify_certificate(json.loads(blobs["line"][0])).ok
        assert certs.verify_certificate(json.loads(blobs["builder"][0])).ok
