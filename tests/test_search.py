import random

import pytest

from varword.colorings import Coloring
from varword.errors import (
    CheckFailed,
    HorizonExceeded,
    InvalidWord,
    NotFoundWithinHorizon,
)
from varword.largeness import (
    FiniteFamily,
    PwSyndeticDecomposition,
    glued_inclusion,
    is_syndetic,
    is_thick,
    pws_certify,
    random_piecewise_syndetic,
)
from varword.search import (
    BuilderStage,
    BuilderTrace,
    LineLetterCertificate,
    _stage,
    d_super_s,
    iterate_builder,
    line_letter_from_dim2,
    search_line_with_letter,
    step_lemma_search,
    verify_line_letter,
)
from varword.trees import level, tree_from_generator
from varword.words import (
    Word,
    decompose,
    format_word,
    letter_words,
    parse_word,
    substitute,
    var_words,
)

K = 2


def full_dec(k, n, ell=1):
    return PwSyndeticDecomposition(FiniteFamily.full(k, n), FiniteFamily.full(k, n), ell)


class TestLineSearch:
    def test_constant_coloring(self):
        c = Coloring.constant(K, 4, 0, 2)
        cert = search_line_with_letter(c)
        assert format_word(cert.line.generator) == "x0"
        assert cert.letter == 0

    def test_unary_parity_small_horizon(self):
        # certificates need f(p) == f(L+1); the blocking colorings are the
        # ones constant on {0,1} and differently constant on {2,..}
        c = Coloring.from_function(1, 3, 0, 2, lambda w: 0 if len(w) <= 1 else 1)
        with pytest.raises(NotFoundWithinHorizon):
            search_line_with_letter(c)

    def test_oracle_agreement_k1(self):
        # independent oracle: a certificate exists iff f(p) == f(L+1) for
        # some p < L <= N-1
        for n_hor in range(1, 6):
            for bits in range(2 ** (n_hor + 1)):
                f = [(bits >> i) & 1 for i in range(n_hor + 1)]
                c = Coloring.from_function(1, n_hor, 0, 2, lambda w: f[len(w)])
                expect = any(
                    f[p] == f[L + 1] for L in range(1, n_hor) for p in range(L)
                )
                try:
                    cert = search_line_with_letter(c)
                    found = True
                    verify_line_letter(cert, c)
                except NotFoundWithinHorizon:
                    found = False
                assert found == expect, (n_hor, f)

    def test_lex_least_witness(self):
        c = Coloring.from_function(K, 4, 0, 2, lambda w: 1 if len(w) == 1 else 0)
        cert = search_line_with_letter(c)
        # S(0) = {eps} color 0, S(1).a must 2-length color 0: generator x0 works
        assert format_word(cert.line.generator) == "x0"
        assert cert.color == 0

    def test_walk_stops_at_first_hit(self, monkeypatch):
        # the walk draws generators only up to the hit's
        import varword.search as search_mod

        drawn = []

        def counting(*args, **kwargs):
            for g in var_words(*args, **kwargs):
                drawn.append(g)
                yield g

        rng = random.Random(1)
        c = Coloring(K, 5, 0, 2, {w: rng.randrange(2) for w in letter_words(K, 5)})
        monkeypatch.setattr(search_mod, "var_words", counting)
        cert = search_line_with_letter(c)
        want = list(var_words(K, 4, dim=1, ordered=True, min_len=1))
        assert want.index(cert.line.generator) == 5
        assert drawn == want[:6]

    def test_partial_coloring_is_refused(self):
        # its colors stop at the first missing word, so the walk cannot read past it
        table = {w: 0 for w in letter_words(K, 4)}
        del table[Word(K, (1, 0, 1))]
        with pytest.raises(InvalidWord, match="coloring not total: missing 101"):
            search_line_with_letter(Coloring(K, 4, 0, 2, table))

    def test_verifier_rejects_tampered(self):
        c = Coloring.constant(K, 4, 0, 2)
        cert = search_line_with_letter(c)
        bad = LineLetterCertificate(cert.line, cert.letter, 1 - cert.color, cert.checked)
        with pytest.raises(InvalidWord):
            verify_line_letter(bad, c)


class TestFromDim2:
    @pytest.mark.parametrize("gen", ["x0x1", "x0[0]x1", "0x0x1[1]"])
    def test_extraction(self, gen):
        tree = tree_from_generator(parse_word(gen, K))
        c = Coloring.constant(K, 8, 0, 2)
        cert, connector = line_letter_from_dim2(tree, c)
        verify_line_letter(cert, c)
        assert len(connector) >= 1
        assert cert.letter == connector.symbols[-1]
        # S(1).a really lands in T(2)
        top = set(level(tree, 2))
        for w in level(cert.line, 1):
            assert Word(K, w.symbols + (cert.letter,)) in top

    def test_connector_matches_full_scan(self):
        # the lex-least connector over all of A^(l2 - l1); over two letters
        # every ordered dimension-2 tree has one
        c = Coloring.constant(K, 8, 0, 2)
        for g in var_words(K, 7, dim=2, ordered=True):
            tree = tree_from_generator(g)
            l1, l2 = tree.level_lengths[1:]
            lvl1, lvl2 = level(tree, 1), set(level(tree, 2))
            want = next(
                sigma
                for sigma in letter_words(K, l2 - l1, min_len=l2 - l1)
                if all(Word(K, w.symbols + sigma.symbols) in lvl2 for w in lvl1)
            )
            cert, connector = line_letter_from_dim2(tree, c)
            assert connector == want, format_word(g)
            assert cert.line.generator.symbols == g.symbols[:l1] + want.symbols[:-1]
            assert cert.letter == want.symbols[-1]

    def test_rejects_wrong_dimension(self):
        tree = tree_from_generator(parse_word("x0", K))
        with pytest.raises(InvalidWord):
            line_letter_from_dim2(tree, Coloring.constant(K, 4, 0, 2))

    def test_rejects_non_monochromatic(self):
        tree = tree_from_generator(parse_word("x0x1", K))
        c = Coloring.from_function(K, 4, 0, 2, lambda w: len(w) % 2)
        with pytest.raises(InvalidWord):
            line_letter_from_dim2(tree, c)


class TestResidue:
    def test_full_family(self):
        line = tree_from_generator(parse_word("x0", K))
        fam = FiniteFamily.full(K, 8)
        out = d_super_s(fam, line)
        assert out.N == 7 and len(out) == out.universe_size

    def test_empty_family(self):
        line = tree_from_generator(parse_word("x0", K))
        out = d_super_s(FiniteFamily.empty(K, 8), line)
        assert len(out) == 0

    def test_matches_per_sigma_check(self, rng):
        line = tree_from_generator(parse_word("0x0", K))
        s1 = level(line, 1)
        for _ in range(20):
            mask = rng.getrandbits(FiniteFamily.full(K, 6).universe_size)
            fam = FiniteFamily(K, 6, mask)
            out = d_super_s(fam, line)
            for sigma in letter_words(K, out.N):
                want = all(w.concat(sigma) in fam for w in s1)
                assert (sigma in out) == want

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_short_line_matches_per_sigma_check(self, k, rng):
        n = 5
        for g in var_words(k, n + 1, dim=1, ordered=True, min_len=1):
            fam = FiniteFamily(k, n, rng.getrandbits(FiniteFamily.full(k, n).universe_size))
            out = d_super_s(fam, tree_from_generator(g))
            s1 = [substitute(g, (a,)) for a in range(k)]
            want = [s for s in letter_words(k, n - len(g)) if all(w.concat(s) in fam for w in s1)]
            assert out == FiniteFamily.from_words(k, max(n - len(g), 0), want)


class TestStepLemma:
    def test_full(self):
        res = step_lemma_search(full_dec(K, 8))
        assert format_word(res.line.generator) == "x0"
        q = res.residue.decomposition.part
        assert q.mask == FiniteFamily.full(K, 6).mask

    def test_even_lengths(self):
        even = FiniteFamily.from_words(
            K, 8, [w for w in letter_words(K, 8) if len(w) % 2 == 0]
        )
        dec = PwSyndeticDecomposition(even, FiniteFamily.full(K, 8), 1)
        res = step_lemma_search(dec)
        p = dec.part
        s0 = substitute(res.line.generator, ())
        assert s0 in p
        gen_len = len(res.line.generator)
        for sigma in res.residue.decomposition.part.words():
            assert (gen_len + len(sigma)) % 2 == 0
            for w in level(res.line, 1):
                glued = w.concat(sigma)
                if len(glued) <= p.N:
                    assert glued in p

    def test_not_found_on_empty(self):
        dec = PwSyndeticDecomposition(
            FiniteFamily.empty(K, 6), FiniteFamily.full(K, 6), 1
        )
        with pytest.raises(NotFoundWithinHorizon):
            step_lemma_search(dec)


class TestBuilder:
    def test_full_universe(self):
        trace = iterate_builder(full_dec(K, 8), 2)
        assert [st.tree.dimension for st in trace.stages] == [0, 1, 2]
        assert all(st.claim1_ok and st.claim2_ok for st in trace.stages)
        assert format_word(trace.tree.generator) == "x0x1"

    def test_even_family(self):
        even = FiniteFamily.from_words(
            K, 12, [w for w in letter_words(K, 12) if len(w) % 2 == 0]
        )
        dec = PwSyndeticDecomposition(even, FiniteFamily.full(K, 12), 1)
        trace = iterate_builder(dec, 2)
        for e in trace.tree.elements:
            assert len(e) % 2 == 0

    def test_random_inputs_claims_always_hold(self, rng):
        successes = 0
        for _ in range(25):
            dec = random_piecewise_syndetic(
                rng, K, 12, 1, 2, rng.uniform(0.8, 0.98), rng.uniform(0.8, 0.98)
            )
            try:
                trace = iterate_builder(dec, 2)
            except NotFoundWithinHorizon:
                continue
            successes += 1
            for st in trace.stages:
                assert st.claim1_ok and st.claim2_ok
        assert successes >= 3

    def test_trace_reverifies_independently(self, rng):
        dec = random_piecewise_syndetic(rng, K, 12, 1, 2, 0.95, 0.95)
        trace = iterate_builder(dec, 2)
        p = trace.part
        for st in trace.stages:
            for e in st.tree.elements:
                if len(e) <= p.N:
                    assert e in p
            tops = level(st.tree, st.tree.dimension)
            for t in tops:
                for a in range(K):
                    head = t.concat(substitute(st.block, (a,)))
                    for sigma in st.residue.decomposition.part.words():
                        glued = head.concat(sigma)
                        if len(glued) <= p.N:
                            assert glued in p

    def test_residues_recertify(self, rng):
        dec = random_piecewise_syndetic(rng, K, 12, 1, 2, 0.9, 0.9)
        try:
            trace = iterate_builder(dec, 1)
        except NotFoundWithinHorizon:
            pytest.skip("no tree for this sample")
        for st in trace.stages:
            rdec = st.residue.decomposition
            assert is_syndetic(rdec.syndetic, rdec.ell).ok
            assert is_thick(rdec.thick, rdec.ell).ok


class TestHorizonCap:
    """A generator whose residue has no room for ``ell`` is never certified."""

    def test_ell_2_matches_reference(self):
        rng = random.Random(1802)
        crashed = 0
        outcomes = set()
        for i in range(16):
            dec = random_piecewise_syndetic(rng, K, 4 + i % 4, 2, 2, rng.uniform(0.5, 1), rng.uniform(0.5, 1))
            try:
                step_ref(dec)
            except HorizonExceeded:
                crashed += 1  # as step_lemma_search itself did before its cap
            # the plain walk over the generators whose residue reaches ell
            want = step_ref(dec, max_gen_len=min(6, dec.N - dec.ell))
            try:
                res = step_lemma_search(dec)
            except NotFoundWithinHorizon as exc:
                assert isinstance(want, str)
                assert str(exc) == f"no one-step line with generator length <= {min(6, dec.N - 1)}"
                outcomes.add("not found")
            else:
                assert (res.line.generator, res.block, res.residue, res.inclusion_checked) == want
                outcomes.add("found")
        assert crashed >= 3 and outcomes == {"found", "not found"}

    def test_m_bound_below_ell_matches_reference(self):
        # m_bound 0 < ell 2: a residue at horizon N - |g| certifies only when
        # its reach, at N - |g| - ell, leaves the syndetic check the range
        # A^{<= N - |g| - 2 ell}, so the walk stops at N - 2 ell
        rng = random.Random(2808)
        crashed = 0
        outcomes = set()
        for i in range(16):
            dec = random_piecewise_syndetic(rng, K, 4 + i % 4, 2, 2, rng.uniform(0.5, 1), rng.uniform(0.5, 1))
            try:
                step_ref(dec, m_bound=0)
            except HorizonExceeded:
                crashed += 1  # as step_lemma_search did when it stopped at N - ell
            want = step_ref(dec, m_bound=0, max_gen_len=min(6, dec.N - 2 * dec.ell))
            try:
                res = step_lemma_search(dec, m_bound=0)
            except NotFoundWithinHorizon as exc:
                assert isinstance(want, str)
                assert str(exc) == f"no one-step line with generator length <= {min(6, dec.N - 1)}"
                outcomes.add("not found")
            else:
                assert (res.line.generator, res.block, res.residue, res.inclusion_checked) == want
                outcomes.add("found")
        assert crashed >= 3 and outcomes == {"found", "not found"}

    def test_line_residue_calls_on_reference_inputs(self, monkeypatch):
        # a count, not a clock: 1,824 residues on TestStepSearchReference's
        # inputs (2,008 before the cap)
        calls = []
        residue = FiniteFamily.line_residue
        monkeypatch.setattr(FiniteFamily, "line_residue", lambda f, g: calls.append(1) or residue(f, g))
        rng = random.Random(1201)
        for i in range(12):
            lo, hi = (0.2, 0.6) if i % 4 == 0 else (0.9, 0.99)
            dec = random_piecewise_syndetic(rng, K, 8 + i % 5, 1, 2, rng.uniform(lo, hi), rng.uniform(lo, hi))
            for search in (lambda: step_lemma_search(dec), lambda: iterate_builder(dec, 2)):
                try:
                    search()
                except NotFoundWithinHorizon:
                    pass
        assert len(calls) <= 2 * 1824


def step_ref(dec, m_bound=2, max_gen_len=6):
    """``step_lemma_search`` by walking every candidate line with ``substitute``.

    Each residue is rebuilt from the level-1 words' own blocks of
    extensions and certified afresh, with nothing kept between
    candidates.  Returns (generator, block, certificate, checked) or the
    not-found message.
    """
    p = dec.part
    cap = min(max_gen_len, dec.N - 1)
    for g in var_words(dec.k, cap, dim=1, ordered=True, min_len=1):
        if substitute(g, ()) not in p:
            continue
        s1 = [substitute(g, (a,)) for a in range(dec.k)]
        n2 = p.N - len(g)
        full = FiniteFamily.full(dec.k, n2)
        firsts = [full.rank(Word(dec.k, (0,) * m)) for m in range(n2 + 1)]
        mask = full.mask
        for w in s1:
            mask &= sum(p.extract_after_prefix(w, m) << firsts[m] for m in range(n2 + 1))
        if not mask:
            continue
        cert = pws_certify(FiniteFamily(dec.k, n2, mask), dec.ell, m_bound)
        if cert is None:
            continue
        checked = glued_inclusion(s1, cert.decomposition.part, p)[1]
        return g, decompose(g)[1][0], cert, checked + 1
    return f"no one-step line with generator length <= {cap}"


def builder_ref(dec, s_max, m_bound=2, max_gen_len=6):
    """``iterate_builder``'s generators, blocks and residues from ``step_ref``."""
    k = dec.k
    gen, stages = None, []
    for s in range(s_max + 1):
        hit = step_ref(dec, m_bound, max_gen_len)
        if isinstance(hit, str):
            return f"stage {s}: {hit}"
        g, block, cert, _ = hit
        root = substitute(g, ()).symbols
        if gen is None:
            gen = root
        else:
            renamed = tuple(k + s - 1 if sym == k else sym for sym in stages[-1][1].symbols)
            gen = gen + renamed + root
        stages.append((gen, block, cert))
        dec = cert.decomposition
    return stages


class TestStepSearchReference:
    """The memoized, rank-space step search against a plain walk."""

    def test_matches_reference(self):
        rng = random.Random(1201)
        outcomes = set()
        for i in range(12):
            n = 8 + i % 5
            lo, hi = (0.2, 0.6) if i % 4 == 0 else (0.9, 0.99)  # sparse parts have no step
            dec = random_piecewise_syndetic(rng, K, n, 1, 2, rng.uniform(lo, hi), rng.uniform(lo, hi))
            want = step_ref(dec)
            try:
                res = step_lemma_search(dec)
            except NotFoundWithinHorizon as exc:
                assert str(exc) == want
                outcomes.add("step not found")
            else:
                g, block, cert, checked = want
                assert res.line.generator == g and res.block == block
                assert res.residue == cert
                assert res.residue.decomposition.part.mask == cert.decomposition.part.mask
                assert res.inclusion_checked == checked
                outcomes.add("step found")

            want = builder_ref(dec, 2)
            try:
                trace = iterate_builder(dec, 2)
            except NotFoundWithinHorizon as exc:
                assert str(exc) == want
                outcomes.add("builder not found")
            else:
                got = [(st.tree.generator.symbols, st.block, st.residue) for st in trace.stages]
                assert got == want
                outcomes.add("builder found")
        assert outcomes == {"step found", "step not found", "builder found", "builder not found"}


# ---------------------------------------------------------------------------
# the staged builder before its stages were checked by
# ``certificates.check_builder_stage``, kept as a reference


def stage_ref(tree, step, p):
    c1 = glued_inclusion(tree.elements, FiniteFamily(p.k, 0, 1), p)
    insts = [substitute(step.block, (a,)) for a in range(step.block.k)]
    heads = [t.concat(wa) for t in level(tree, tree.dimension) for wa in insts]
    c2 = glued_inclusion(heads, step.residue.decomposition.part, p)
    return BuilderStage(tree, step.block, step.residue, *c1[:3], *c2[:3])


def iterate_builder_ref(dec, s_max, m_bound=2):
    p, k = dec.part, dec.k
    try:
        step = step_lemma_search(dec, m_bound)
    except NotFoundWithinHorizon as exc:
        raise NotFoundWithinHorizon(f"stage 0: {exc}") from exc
    stages = [stage_ref(tree_from_generator(substitute(step.line.generator, ())), step, p)]
    if not (stages[0].claim1_ok and stages[0].claim2_ok):
        raise AssertionError("stage 0 claims failed")
    for s in range(s_max):
        prev = stages[-1]
        try:
            step = step_lemma_search(prev.residue.decomposition, m_bound)
        except NotFoundWithinHorizon as exc:
            raise NotFoundWithinHorizon(f"stage {s + 1}: {exc}") from exc
        renamed = tuple(k + s if sym == k else sym for sym in prev.block.symbols)
        gen = Word(k, prev.tree.generator.symbols + renamed + substitute(step.line.generator, ()).symbols)
        stages.append(stage_ref(tree_from_generator(gen), step, p))
        if not (stages[-1].claim1_ok and stages[-1].claim2_ok):
            raise AssertionError(f"stage {s + 1} claims failed")
    return BuilderTrace(p, tuple(stages))


def _builder_outcome(build, dec):
    try:
        return build(dec, 2)
    except NotFoundWithinHorizon as exc:
        return str(exc)


def _seeded_decompositions():
    """The builder inputs of the tests and criteria: ``TestStepSearchReference``'s
    twelve, the certificate fixtures' two and criterion 7's hundred."""
    rng = random.Random(1201)
    for i in range(12):
        lo, hi = (0.2, 0.6) if i % 4 == 0 else (0.9, 0.99)
        yield random_piecewise_syndetic(rng, K, 8 + i % 5, 1, 2, rng.uniform(lo, hi), rng.uniform(lo, hi))
    for n in (12, 9):
        yield random_piecewise_syndetic(random.Random(21), K, n, 1, 2, 0.95, 0.95)
    rng = random.Random(7_000)
    for _ in range(100):
        yield random_piecewise_syndetic(rng, K, 12, 1, 2, rng.uniform(0.75, 0.98), rng.uniform(0.75, 0.98))


class TestBuilderReference:
    def test_traces_match_reference(self):
        found = 0
        for dec in _seeded_decompositions():
            got = _builder_outcome(iterate_builder, dec)
            assert got == _builder_outcome(iterate_builder_ref, dec)
            found += isinstance(got, BuilderTrace)
        assert found >= 10

    @pytest.mark.parametrize("n", range(13))
    def test_stages_against_a_cut_part_match_reference(self, n):
        # P cut to horizon n: levels, a top level and glued words past it are skipped
        dec = random_piecewise_syndetic(random.Random(21), K, 12, 1, 2, 0.95, 0.95)
        small = dec.part.restrict(n)
        for st in iterate_builder(dec, 2).stages:
            assert _stage(st.tree, st, small) == stage_ref(st.tree, st, small)

    def test_failed_claim_raises_check_failed(self, monkeypatch, tmp_path, capsys):
        # a claim that fails raises CheckFailed, and the CLI reports it as an error, exit 1
        from varword import cli, search

        dec = random_piecewise_syndetic(random.Random(21), K, 12, 1, 2, 0.95, 0.95)
        st = iterate_builder(dec, 2).stages[1]
        root = st.tree.elements[0]
        cut = dec.part - FiniteFamily.from_words(K, 12, [root])
        with pytest.raises(CheckFailed, match=f"^claim 1 fails at {format_word(root)}$"):
            _stage(st.tree, st, cut)
        real = search.check_builder_stage
        monkeypatch.setattr(search, "check_builder_stage", lambda p, *args: real(p - FiniteFamily.from_words(K, p.N, [root]), *args))
        for name, fam in (("s.txt", dec.syndetic), ("t.txt", dec.thick)):
            (tmp_path / name).write_text(f"{K} 12\n" + "\n".join(fam.texts()) + "\n")
        argv = ["search", "builder", "--syndetic", str(tmp_path / "s.txt"), "--thick", str(tmp_path / "t.txt"), "--ell", "1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: CheckFailed: claim 1 fails at {format_word(root)}\n"


class TestOneCheckPerClaim:
    """The step search and the builder decide their claims only through
    ``certificates.check_builder_stage``."""

    def test_glued_inclusion_is_entered_only_from_the_stage_check(self, monkeypatch):
        import sys

        from varword import largeness

        callers = []
        real = largeness.glued_inclusion

        def traced(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(largeness, "glued_inclusion", traced)
        found = 0
        for dec in _seeded_decompositions():
            found += isinstance(_builder_outcome(iterate_builder, dec), BuilderTrace)
        assert found >= 10 and callers and set(callers) == {"check_builder_stage"}

    def test_one_stage_check_per_step_hit(self, monkeypatch):
        from varword import search

        calls = []
        real = search.check_builder_stage
        monkeypatch.setattr(search, "check_builder_stage", lambda *args: calls.append(1) or real(*args))
        hits = 0
        for dec in _seeded_decompositions():
            before = len(calls)
            try:
                step_lemma_search(dec)
            except NotFoundWithinHorizon:
                assert len(calls) == before
                continue
            hits += 1
            assert len(calls) == before + 1
        assert hits >= 10
