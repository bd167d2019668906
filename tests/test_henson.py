from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_graphs, hvertex, random_prefix_valid
from varword.errors import (
    CutPointMissing,
    DomainTooLarge,
    InputError,
    NotFoundWithinHorizon,
    NotTriangleFree,
    TriangleFound,
)
from varword.henson import (
    GraphSpec,
    assert_triangle_free,
    edge,
    edge_invariance,
    enum_vertices,
    greedy_embed,
    minimal_envelope,
    parse_chi,
    phi_embed,
    profile_coloring,
)
from varword.words import Word, format_word, parse_word, substitute


class TestVertices:
    def test_small_enumerations(self):
        assert [format_word(v) for v in enum_vertices(1)] == ["x0"]
        assert [format_word(v) for v in enum_vertices(2)] == [
            "x0",
            "0x0",
            "x0[0]",
            "x0x0",
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_count_formula(self, n):
        # oracle: binary strings of length <= n minus the all-zero ones
        oracle = sum(2**length - 1 for length in range(1, n + 1))
        assert len(enum_vertices(n)) == oracle == 2 ** (n + 1) - n - 2

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_walk_matches_bit_loop(self, n):
        # oracle: the numbers 1 .. 2^L - 1 in L bits, 1 marking the variable
        oracle = [
            Word(1, tuple((v >> (length - 1 - i)) & 1 for i in range(length)))
            for length in range(1, n + 1)
            for v in range(1, 1 << length)
        ]
        assert enum_vertices(n) == oracle


class TestEdge:
    def test_examples(self):
        assert edge(hvertex("1"), hvertex("01"))
        assert not edge(hvertex("1"), hvertex("10"))
        assert not edge(hvertex("10"), hvertex("101"))
        assert not edge(hvertex("1"), hvertex("1"))

    def test_symmetric_irreflexive_exhaustive(self):
        verts = enum_vertices(5)
        for v in verts:
            assert not edge(v, v)
        for v, w in combinations(verts, 2):
            assert edge(v, w) == edge(w, v)

    def test_equal_length_never_adjacent(self):
        verts = [v for v in enum_vertices(4) if len(v) == 4]
        for v, w in combinations(verts, 2):
            assert not edge(v, w)


class TestTriangleFree:
    def test_scan_passes(self):
        rep = assert_triangle_free(6)
        assert rep.vertices == 120 and rep.edges > 0

    def test_mutant_without_exclusion_clause(self):
        def mutant(v, w):
            if len(v) == len(w):
                return False
            if len(v) > len(w):
                v, w = w, v
            return w.symbols[len(v)] == 1

        with pytest.raises(TriangleFound) as exc:
            assert_triangle_free(4, edge_fn=mutant)
        a, b, c = exc.value.triple
        assert mutant(a, b) and mutant(b, c) and mutant(a, c)


class TestPhi:
    def test_single_edge(self):
        pe = phi_embed(GraphSpec.from_pairs(2, [(0, 1)]))
        assert [format_word(w) for w in pe.words] == ["-", "x0"]
        assert edge(pe.words[0], pe.words[1])
        assert pe.in_vertex_set == (False, True)

    def test_two_isolated(self):
        pe = phi_embed(GraphSpec.from_pairs(2, []))
        assert [format_word(w) for w in pe.words] == ["-", "0"]
        assert not edge(pe.words[0], pe.words[1])

    def test_path(self):
        pe = phi_embed(GraphSpec.from_pairs(3, [(0, 1), (1, 2)]))
        assert [format_word(w) for w in pe.words] == ["-", "x0", "0x0"]

    def test_preserves_all_graphs(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                if not g.is_triangle_free():
                    continue
                pe = phi_embed(g)
                for i, j in combinations(range(n), 2):
                    assert edge(pe.words[i], pe.words[j]) == g.adj(i, j)

    def test_rejects_triangle(self):
        with pytest.raises(NotTriangleFree):
            phi_embed(GraphSpec.from_pairs(3, [(0, 1), (1, 2), (0, 2)]))


class TestGreedy:
    def test_five_cycle(self):
        g = GraphSpec.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        images = greedy_embed(g, 16)
        assert len({len(w) for w in images}) == 5
        for i, j in combinations(range(5), 2):
            assert edge(images[i], images[j]) == g.adj(i, j)

    def test_all_small_graphs(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                if not g.is_triangle_free():
                    continue
                images = greedy_embed(g, 12)
                assert all(w.has_variables() for w in images)

    def test_rejects_triangle(self):
        with pytest.raises(NotTriangleFree):
            greedy_embed(GraphSpec.from_pairs(3, [(0, 1), (1, 2), (0, 2)]), 12)

    def test_horizon_exhaustion(self):
        g = GraphSpec.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(NotFoundWithinHorizon):
            greedy_embed(g, 3)


def test_searches_recheck_with_the_verifiers_checks(monkeypatch):
    # phi, greedy and the envelope search hand their results to the checks
    # that ``verify`` runs on their certificates
    from varword import certificates

    calls = []
    for name in ("check_embedding", "check_envelope"):
        real = getattr(certificates, name)
        monkeypatch.setattr(certificates, name, lambda *a, real=real: calls.append(a) or real(*a))
    g = GraphSpec.from_pairs(3, [(0, 1), (1, 2)])
    pe, images = phi_embed(g), greedy_embed(g, 10)
    env = minimal_envelope([Word(1, (0, 0)), Word(1, (1,))])
    assert calls == [
        (g, pe.words, None),
        (g, list(images), 10),
        ([Word(1, (1,)), Word(1, (0, 0))], env.word, 2, list(env.assignments)),
    ]


class TestInvariance:
    def test_identity_prefix(self):
        w = Word(1, (1, 2, 3, 4, 5))  # x0 x1 x2 x3 x4
        assert edge_invariance(w, hvertex("1"), hvertex("01"))

    def test_random_battery(self, rng):
        checked = 0
        while checked < 2000:
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

    def test_mutant_substitution_without_cut_fails(self):
        # substituting without the cut appends garbage that flips an edge
        def subst_no_cut(w, u):
            out = []
            for s in w.symbols:
                if s == 0:
                    out.append(0)
                else:
                    j = s - 1
                    out.append(u.symbols[j] if j < len(u) else 0)
            return Word(1, tuple(out))

        w = Word(1, (1, 2, 3))  # x0 x1 x2
        u, v = hvertex("1"), hvertex("01")
        assert edge(u, v)
        mu, mv = subst_no_cut(w, u), subst_no_cut(w, v)
        assert edge(substitute(w, u, omega=True), substitute(w, v, omega=True))
        assert not edge(mu, mv)


class TestEnvelope:
    def test_singleton_constant(self):
        env = minimal_envelope([Word(1, (0, 0, 0))])
        assert env.word == Word(1, (0, 0, 0))
        assert env.variable_count == 0 and env.bound == 2

    def test_singleton_variable(self):
        env = minimal_envelope([hvertex("1")])
        assert format_word(env.word) == "x0" and env.variable_count == 1

    def test_pair_needs_two(self):
        env = minimal_envelope([Word(1, (0, 0)), hvertex("1")])
        assert env.variable_count == 2
        for s, t in env.assignments:
            assert substitute(env.word, t) == s

    def test_exhaustive_pairs_respect_bound(self):
        pool = []
        for length in range(0, 4):
            for bits in range(2**length):
                pool.append(
                    Word(1, tuple((bits >> (length - 1 - i)) & 1 for i in range(length)))
                )
        for s0, s1 in combinations(pool, 2):
            env = minimal_envelope([s0, s1])
            assert env.variable_count <= env.bound == 5
            for s, t in env.assignments:
                assert substitute(env.word, t) == s

    def test_minimality_by_reverse_search(self):
        # no envelope with fewer variables exists for this pair
        members = [hvertex("10"), hvertex("01")]
        env = minimal_envelope(members)
        from varword.henson import _cover
        from varword.words import var_words

        for d in range(env.variable_count):
            for cand in var_words(1, 3, dim=d):
                assert any(_cover(cand, s) is None for s in members)


    def test_pruned_walk_matches_full_walk(self):
        # every envelope of the singletons, pairs and sampled triples of the
        # words of length <= 4, against the unpruned walk over every length
        from varword.henson import _cover
        from varword.words import var_words

        def full_walk(members):
            mem = sorted(set(members), key=Word.key)
            longest = max(len(s) for s in mem)
            for d in range(longest + 2):
                for env in var_words(1, longest + 1, dim=d):
                    assign = tuple((s, _cover(env, s)) for s in mem)
                    if all(t is not None for _, t in assign):
                        return env, assign

        pool = _all_unary_words(4)
        inputs = [[s] for s in pool] + [list(p) for p in combinations(pool, 2)]
        inputs += [list(t) for t in combinations(pool, 3)][::29]
        for members in inputs:
            env = minimal_envelope(members)
            assert (env.word, env.assignments) == full_walk(members), members

    def test_cover_matches_substitution(self):
        # env[t] has length env's cut at |t|, so at most one t gives a member;
        # _cover finds it, or None, as substituting every t up to the dimension does
        from varword.henson import _cover
        from varword.words import var_words

        members = _all_unary_words(4)
        for d in range(4):
            for env in var_words(1, 5, dim=d):
                images = {substitute(env, t): t for t in _all_unary_words(d)}
                for s in members:
                    assert _cover(env, s) == images.get(s), (format_word(env), format_word(s))

    def test_cover_calls_on_criterion_9_pool(self, monkeypatch):
        # a count, not a clock: the pruned walks call _cover 3,969 times on
        # criterion 9's 2,016 inputs (the full walk made 765,636 calls)
        import varword.henson as henson_mod

        calls = []
        cover = henson_mod._cover
        monkeypatch.setattr(henson_mod, "_cover", lambda env, s: calls.append(1) or cover(env, s))
        pool = _all_unary_words(5)
        for members in [[s] for s in pool] + [list(p) for p in combinations(pool, 2)]:
            minimal_envelope(members)
        assert len(calls) <= 2 * 3969


class TestProfile:
    def test_single_vertex_constant(self):
        g = GraphSpec.from_pairs(1, [])
        prof = profile_coloring(lambda emb: 0, g, 3)
        assert prof.dimension == 2
        assert prof.slot_count == 7
        assert prof.distinct_profiles == 1

    def test_single_edge_slot_count(self):
        g = GraphSpec.from_pairs(2, [(0, 1)])
        prof = profile_coloring(lambda emb: 0, g, 5)
        # 2-subsets of the 63 words of length <= 5 over {0, x0}, twice
        assert prof.dimension == 5
        assert prof.slot_count == 63 * 62
        assert len(prof.table) == 1

    def test_length_parity_coloring_separates_patterns(self):
        g = GraphSpec.from_pairs(1, [])
        chi = lambda emb: len(emb[0]) % 2
        prof = profile_coloring(chi, g, 3)
        assert prof.distinct_profiles >= 2
        # the profile depends only on the cut-position parities of u
        for u, row in prof.table.items():
            for (combo, perm), val in zip(prof.slots, row):
                from varword.words import substitute as subst

                assert val == len(subst(u, combo[perm[0]])) % 2

    def test_region_blind_colorings_agree(self):
        g = GraphSpec.from_pairs(1, [])
        base = {(v,): 0 for v in _all_unary_words(4)}
        u = Word(1, (1, 2))  # x0 x1
        images = {img for img, in _valid_images(u)}
        alt = dict(base)
        for key in base:
            if key[0] not in images:
                alt[key] = 1
        p0 = profile_coloring(base, g, 2)
        p1 = profile_coloring(alt, g, 2)
        assert p0.table[u] == p1.table[u]

    def test_domain_guard(self):
        g = GraphSpec.from_pairs(4, [])
        with pytest.raises(DomainTooLarge):
            profile_coloring(lambda emb: 0, g, 4)


class TestParseChi:
    def test_reads_table(self):
        chi = parse_chi("x0 0x0 1\n\n0 x0  0\n", 2, "chi.txt")
        assert chi((parse_word("x0", 1), parse_word("0x0", 1))) == 1
        assert chi((parse_word("0", 1), parse_word("x0", 1))) == 0
        with pytest.raises(InputError) as info:
            chi((parse_word("x0", 1), parse_word("x0", 1)))
        assert str(info.value) == "chi.txt:0:0: no color for the embedding x0 x0"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x0 1\n", "chi.txt:1:1: expected 2 words and a color"),
            ("x0 0x0 1\nx0 0y 1\n", "chi.txt:2:1: unexpected character 'y' at position 1"),
            ("x0 1x0 1\n", "chi.txt:1:1: letter 1 outside alphabet of size 1"),
            ("x0  0x0 one\n", "chi.txt:1:9: bad color 'one'"),
        ],
        ids=["arity", "word", "letter", "color"],
    )
    def test_malformed(self, text, message):
        with pytest.raises(InputError) as info:
            parse_chi(text, 2, "chi.txt")
        assert str(info.value) == message


# pieces of file lines: well-formed, out of range and junk
_COUNTS = ["0", "1", "2", "3", "-1", "-3", "1_0", "+2", "\u0662", "x", "", "2 2", "99999999999"]
_ROWS = ["", "0", "1", "00", "01", "10", "11", "000", "010", "001", "100", "0 1", "2", "x0", " 01"]
_CHI_WORDS = ["-", "0", "1", "x0", "0x0", "x00", "x0x0", "x1", "0y", "00x0", "x0[0]"]
_CHI_COLORS = ["0", "1", "2", "-1", "+1", "1_0", "one", "1.5", "\u0661", "9" * 5000]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_COUNTS), st.lists(st.sampled_from(_ROWS), max_size=5))
def test_graph_reader_returns_or_raises_input_error(header, rows):
    # a negative vertex count (an empty vertex set) is refused with the rest
    text = "\n".join([header] + rows) + "\n"
    try:
        g = GraphSpec.parse(text, "g.txt")
    except InputError as exc:
        assert exc.filename == "g.txt" and exc.line >= 1
    else:
        assert g.n >= 0 and not header.strip().startswith("-")
        assert GraphSpec.parse(g.dump()) == g


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-2, 3),
    st.lists(
        st.one_of(
            st.tuples(st.lists(st.sampled_from(_CHI_WORDS), max_size=4), st.sampled_from(_CHI_COLORS)).map(
                lambda wc: " ".join([*wc[0], wc[1]])
            ),
            st.sampled_from(["", " ", "x0", "0 0 0 0 0"]),
        ),
        max_size=5,
    ),
)
def test_chi_reader_returns_or_raises_input_error(n, lines):
    # n < 0 leaves no embedding to color and is refused whatever the lines
    try:
        chi = parse_chi("\n".join(lines) + "\n", n, "chi.txt")
    except InputError as exc:
        assert exc.filename == "chi.txt" and exc.line >= 1
        assert n >= 0 or (exc.line, exc.column) == (1, 1)
    else:
        assert n >= 0
        want = {}
        for line in lines:
            if line.strip():
                *texts, color = line.split()
                want[tuple(parse_word(t, 1) for t in texts)] = int(color)
        assert all(chi(emb) == color for emb, color in want.items())


def _all_unary_words(max_len):
    out = []
    for length in range(max_len + 1):
        for bits in range(2**length):
            out.append(Word(1, tuple((bits >> (length - 1 - i)) & 1 for i in range(length))))
    return out


def _valid_images(u):
    from varword.words import dimension

    d = dimension(u)
    for t in _all_unary_words(d):
        if len(t) <= d:
            try:
                yield (substitute(u, t),)
            except CutPointMissing:
                pass
