import ast
import inspect
import json
import random
import re
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import all_graphs
from varword import certificates as certs
from varword.cli import (
    builder_certificate_doc,
    cdrt_certificate_doc,
    csl_certificate_doc,
    embedding_certificate_doc,
    envelope_certificate_doc,
    line_letter_certificate_doc,
    prehomog_certificate_doc,
)
from varword.cdrt import pullback_certificate, translate
from varword.colorings import Coloring
from varword.henson import GraphSpec, greedy_embed, minimal_envelope
from varword.errors import CheckFailed, DomainTooLarge, IndexOutOfRange, InvalidWord
from varword.largeness import (
    MAX_UNIVERSE,
    FiniteFamily,
    PwSyndeticDecomposition,
    brown_select,
    brown_side,
    check_family_size,
    is_syndetic,
    pw_split,
    random_piecewise_syndetic,
    split_sides,
)
from varword.prehomog import csl_search, one_step_prehomog
from varword.search import iterate_builder, search_line_with_letter
from varword.trees import level, tree_from_generator
from varword.words import Word, format_word, letter_words, parse_word, substitute, var_words

K = 2


@pytest.fixture(scope="module")
def docs():
    out = {}
    c = Coloring.from_function(K, 5, 0, 2, lambda w: len(w) % 2)
    cert = search_line_with_letter(c)
    out["line-letter"] = line_letter_certificate_doc(c, cert)

    cc = Coloring.constant(K, 4, 0, 2)
    out["csl"] = csl_certificate_doc(cc, csl_search(cc, 1))

    rng = random.Random(21)
    dec = random_piecewise_syndetic(rng, K, 12, 1, 2, 0.95, 0.95)
    out["builder-trace"] = builder_certificate_doc(dec, iterate_builder(dec, 2))

    f1 = Coloring.constant(K, 8, 1, 2)
    w = parse_word("x0x1x2x3x4x5x6x7", K)
    one = one_step_prehomog(w, Word(K, ()), f1, depth=1, verify_tail=1)
    out["prehomog"] = prehomog_certificate_doc(f1, w, one, 1)

    c5 = Coloring.constant(K, 5, 0, 2, 1)
    inner = csl_search(translate(c5), K + 1, max_len=5)
    pb = pullback_certificate(inner, c5, depth=1)
    out["cdrt"] = cdrt_certificate_doc(c5, pb, 1, inner.word)

    g = GraphSpec.from_pairs(3, [(0, 1), (1, 2)])
    out["embedding"] = embedding_certificate_doc(g, greedy_embed(g, 10), "greedy", 10)

    members = [Word(1, (0, 0)), Word(1, (1,))]
    out["envelope"] = envelope_certificate_doc(members, minimal_envelope(members))

    out["tree"] = certs.tree_certificate_doc(tree_from_generator(parse_word("10x0 01x0 10", K)))

    dec8 = random_piecewise_syndetic(random.Random(7), K, 8, 1, 2, 0.9, 0.9)
    p = dec8.part
    b = FiniteFamily.from_words(K, 8, [w for w in p.words() if len(w) % 2 == 0])
    out["split"] = certs.split_certificate_doc(dec8, b, p - b, pw_split(dec8, b, p - b))
    p0 = FiniteFamily.from_words(K, 8, [w for w in p.words() if len(w) == 0 or w[0] == 0])
    parts = [p0, p - p0]
    sel = brown_select(dec8, parts)
    wit = is_syndetic(sel.decomposition.syndetic, dec8.ell, want_witness=True).witness
    out["brown"] = certs.brown_certificate_doc(dec8, parts, sel, wit.translators)
    return out


ALL_KINDS = [
    "line-letter",
    "csl",
    "builder-trace",
    "prehomog",
    "cdrt",
    "embedding",
    "envelope",
    "tree",
    "split",
    "brown",
]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_emitted_certificate_verifies(docs, kind):
    res = certs.verify_certificate(docs[kind])
    assert res.ok, res.detail


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_json_roundtrip_stays_valid(docs, kind):
    blob = certs.canonical_json(docs[kind])
    doc = json.loads(blob)
    assert certs.verify_certificate(doc).ok
    assert certs.canonical_json(doc) == blob


def test_digest_tamper_detected(docs):
    doc = json.loads(certs.canonical_json(docs["line-letter"]))
    doc["instance"]["table"][0][1] ^= 1
    res = certs.verify_certificate(doc)
    assert not res.ok and "digest" in res.detail


def test_witness_tamper_detected(docs):
    doc = json.loads(certs.canonical_json(docs["line-letter"]))
    doc["witness"]["color"] ^= 1
    assert not certs.verify_certificate(doc).ok

    doc = json.loads(certs.canonical_json(docs["envelope"]))
    doc["witness"]["variable_count"] += 1
    assert not certs.verify_certificate(doc).ok

    doc = json.loads(certs.canonical_json(docs["embedding"]))
    doc["witness"]["words"] = doc["witness"]["words"][::-1]
    assert not certs.verify_certificate(doc).ok


def test_unknown_kind_rejected(docs):
    doc = json.loads(certs.canonical_json(docs["csl"]))
    doc["kind"] = "mystery"
    assert not certs.verify_certificate(doc).ok


@pytest.mark.parametrize("doc", [[1, 2], 3, "x", None])
def test_non_object_is_malformed(doc):
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate")


@pytest.mark.parametrize("k, n", [(2, 40), (1, 10**9)])
def test_oversized_family_is_malformed(docs, k, n):
    # refused from the header, before a mask or offset table of that
    # size is built (N = 40 died of MemoryError in complement())
    doc = json.loads(certs.canonical_json(docs["builder-trace"]))
    for side in ("syndetic", "thick"):
        doc["instance"]["decomposition"][side].update(k=k, N=n)
    doc["digest"] = certs.digest(doc["instance"])
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate")


@pytest.mark.parametrize("defect", ["missing", "outside", "color", "header"])
def test_non_total_coloring_is_malformed(docs, defect):
    # the line-letter verifier reads only the colors its witness names, so
    # a table cut to 40 of the 63 words of A^{<=5} used to verify
    doc = json.loads(certs.canonical_json(docs["line-letter"]))
    inst = doc["instance"]
    assert len(inst["table"]) == 63
    if defect == "missing":
        inst["table"] = inst["table"][:40]
    elif defect == "outside":
        inst["table"].append(["000000", 0])
    elif defect == "color":
        inst["table"][-1][1] = inst["ell"]
    else:
        inst["N"] = 40
    doc["digest"] = certs.digest(inst)
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate")


def _builder_doc(docs):
    doc = json.loads(certs.canonical_json(docs["builder-trace"]))
    part = certs.decomposition_from_json(doc["instance"]["decomposition"]).part
    return doc, part


def _flip(fam_doc, r):
    fam = certs.family_from_json(fam_doc)
    return certs.family_to_json(FiniteFamily(fam.k, fam.N, fam.mask ^ (1 << r)))


def test_claim1_tamper_names_least_failing_word(docs):
    # clear the stage-0 root from P's syndetic side: P loses one word
    doc, part = _builder_doc(docs)
    g0 = certs.word_from_json(doc["witness"]["stages"][0]["generator"])
    elems = [e for e in tree_from_generator(g0).elements if len(e) <= part.N]
    dec = doc["instance"]["decomposition"]
    dec["syndetic"] = _flip(dec["syndetic"], part.rank(elems[0]))
    doc["digest"] = certs.digest(doc["instance"])
    tampered = certs.decomposition_from_json(dec).part
    least = min((e for e in elems if e not in tampered), key=Word.key)
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail == f"claim 1 fails at {format_word(least)}"


def test_claim2_tamper_names_least_failing_word(docs):
    # add one word to the last stage's residue part, by flipping the
    # single side that lacks it, so that some glued word leaves P
    doc, part = _builder_doc(docs)
    stage = doc["witness"]["stages"][-1]
    tree = tree_from_generator(certs.word_from_json(stage["generator"]))
    block = certs.word_from_json(stage["block"])
    heads = [
        t.concat(substitute(block, (a,)))
        for t in level(tree, tree.dimension)
        for a in range(K)
    ]
    res_dec = certs.decomposition_from_json(stage["residue"])
    for r in range(res_dec.syndetic.universe_size):
        sides = [side for side in ("syndetic", "thick") if not getattr(res_dec, side).mask >> r & 1]
        sigma = res_dec.syndetic.unrank(r)
        glued = [h.concat(sigma) for h in heads]
        failing = [w for w in glued if len(w) <= part.N and w not in part]
        if len(sides) == 1 and failing:
            break
    else:
        pytest.fail("no single residue bit breaks claim 2")
    stage["residue"][sides[0]] = _flip(stage["residue"][sides[0]], r)
    res = certs.verify_certificate(doc)
    least = min(failing, key=Word.key)
    assert not res.ok and res.detail == f"claim 2 fails at {format_word(least)}"


@pytest.mark.parametrize("claim", ["claim1", "claim2"])
@pytest.mark.parametrize("tamper", [("ok", 0), ("checked", 10**9), ("checked", -1), ("skipped", 1), "drop"])
def test_builder_claim_records_must_match(docs, claim, tamper):
    # each of these verified OK with the same "5099 checks" while the
    # verifier ignored the stage records
    doc, _ = _builder_doc(docs)
    assert certs.verify_certificate(doc) == (True, "builder-trace", "5099 checks")
    for i in range(len(doc["witness"]["stages"])):
        bad = json.loads(certs.canonical_json(doc))
        stage = bad["witness"]["stages"][i]
        if tamper == "drop":
            del stage[claim]
        else:
            stage[claim][tamper[0]] = tamper[1]
        assert not certs.verify_certificate(bad).ok, i


def test_builder_residue_ell_must_be_the_instance_ell(docs):
    doc, _ = _builder_doc(docs)
    doc["witness"]["stages"][1]["residue"]["ell"] = 2
    assert certs.verify_certificate(doc) == (
        False, "builder-trace", "stage 1: residue ell differs from the instance's"
    )


@pytest.mark.parametrize("n", [0, 1, 2, 8, 10])
def test_builder_skipped_counts_derived_from_sizes(docs, n):
    # the fixture's stages restaged against P cut to horizon n, with the
    # builder's own stage check: levels past the horizon (n <= 1), a top
    # level past it (n <= 1) and glued words past it (n >= 2) are skipped
    from varword.search import BuilderTrace, _stage

    dec = certs.decomposition_from_json(docs["builder-trace"]["instance"]["decomposition"])
    small = PwSyndeticDecomposition(dec.syndetic.restrict(n), dec.thick.restrict(n), dec.ell)
    trace = iterate_builder(dec, 2)
    stages = tuple(_stage(st.tree, st, small.part) for st in trace.stages)
    assert any(st.claim1_skipped or st.claim2_skipped for st in stages)
    doc = builder_certificate_doc(small, BuilderTrace(small.part, stages))
    checked = sum(st.claim1_checked + st.claim2_checked for st in stages)
    assert certs.verify_certificate(doc) == (True, "builder-trace", f"{checked} checks")
    doc["witness"]["stages"][-1]["claim2"]["skipped"] += 1
    assert not certs.verify_certificate(doc).ok


def test_builder_records_of_a_huge_tree_refused_quickly(docs):
    # no level of x0...x19999 behind N + 1 letters is within the horizon:
    # claim 1 skips 2^20001 - 1 words, counted in closed form and never
    # turned into text (it is past the 4300-digit limit of int-to-str)
    doc, part = _builder_doc(docs)
    g = Word(K, (0,) * (part.N + 1) + tuple(range(K, K + 20000)))
    doc["witness"]["stages"][0]["generator"] = certs.word_to_json(g)
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 1.0
    assert res == (False, "builder-trace", "stage 0: claim 1 record mismatch")


def test_builder_records_of_a_huge_alphabet_refused_quickly(docs):
    # P over k = 10^18 holds only the empty word: x0...x99999 skips ~k^100000 words
    doc, _ = _builder_doc(docs)
    k = 10**18
    fam = certs.family_to_json(FiniteFamily(k, 0, 1))
    doc["instance"]["decomposition"] = {"type": "pw-decomposition", "ell": 0, "syndetic": fam, "thick": fam}
    doc["digest"] = certs.digest(doc["instance"])
    stage = doc["witness"]["stages"][0]
    stage["residue"]["ell"] = 0
    stage["generator"] = certs.word_to_json(Word(k, tuple(range(k, k + 10**5))))
    doc["witness"]["stages"] = [stage]
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 0.25
    assert res == (False, "builder-trace", "stage 0: claim 1 record mismatch")


def test_builder_verifier_bounded_by_instance(docs):
    # x0...x19 has 2^21 - 1 tree elements; only those of length <= N are built
    doc, _ = _builder_doc(docs)
    doc["witness"]["stages"][0]["generator"] = certs.word_to_json(
        Word(K, tuple(range(K, K + 20)))
    )
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 1.0
    assert not res.ok and res.detail.startswith("claim 1 fails at")


def test_tree_verifier_bounded_by_instance():
    # a dimension-30 witness for a 3-element instance is refused by count
    small = tree_from_generator(parse_word("0x0", K))
    instance = {"type": "elements", "elements": [certs.word_to_json(e) for e in small.elements]}
    witness = {
        "generator": certs.word_to_json(Word(K, tuple(range(K, K + 30)))),
        "dimension": 30,
        "elements": instance["elements"],
    }
    doc = certs.wrap("tree", instance, witness, 3)
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 1.0
    assert not res.ok and res.detail == "element set mismatch"
    witness["generator"] = certs.word_to_json(small.generator)
    witness["dimension"] = 1
    assert certs.verify_certificate(certs.wrap("tree", instance, witness, 3)).ok


@pytest.mark.parametrize(
    "tamper",
    [("drop", None), ("dict", None), ("k", 0), ("k", -1), ("k", 10**9), ("k", "x"),
     ("symbols", 0), ("symbols", "x"), ("text", 0), ("text", "x")],
)
def test_tree_witness_elements_must_be_the_instance(docs, tamper):
    # each of these verified OK while the verifier never read witness.elements
    doc = json.loads(certs.canonical_json(docs["tree"]))
    assert certs.verify_certificate(doc) == (True, "tree", "3 checks")
    op, value = tamper
    if op == "drop":
        del doc["witness"]["elements"]
    elif op == "dict":
        doc["witness"]["elements"] = dict(enumerate(doc["witness"]["elements"]))
    else:
        doc["witness"]["elements"][-1][op] = value
    assert not certs.verify_certificate(doc).ok


@pytest.mark.parametrize(
    "tamper",
    [("bound", 0), ("bound", -1), ("bound", 10**9), ("bound", "x"), ("bound", None),
     ("minimal_by_search_order", False), ("minimal_by_search_order", 1),
     ("minimal_by_search_order", "x"), ("minimal_by_search_order", None)],
)
def test_envelope_bound_and_minimality_must_match(docs, tamper):
    # each of these verified OK while the verifier ignored both fields
    doc = json.loads(certs.canonical_json(docs["envelope"]))
    assert certs.verify_certificate(doc).ok
    key, value = tamper
    if value is None:
        del doc["witness"][key]
    else:
        doc["witness"][key] = value
    assert not certs.verify_certificate(doc).ok


def test_envelope_bound_counts_distinct_members():
    members = [Word(1, (0,)), Word(1, (0,))]
    env = minimal_envelope(members)
    assert env.bound == 2
    doc = json.loads(certs.canonical_json(envelope_certificate_doc(members, env)))
    assert certs.verify_certificate(doc) == (True, "envelope", "2 checks")
    doc["witness"]["bound"] = 2**2 + 2 - 1  # the bound over both listed members
    assert certs.verify_certificate(doc) == (False, "envelope", "bound mismatch")


def test_prehomog_verifier_bounded_by_instance(docs):
    # tail lengths whose images cannot be colored are passed over whole;
    # walking every extension to verify_tail 13 took about 10 s for the same checks
    doc = json.loads(certs.canonical_json(docs["prehomog"]))
    want = certs.verify_certificate(doc)
    assert want.ok
    for tail in (13, 10**9):
        doc["instance"]["verify_tail"] = tail
        doc["digest"] = certs.digest(doc["instance"])
        t0 = time.perf_counter()
        assert certs.verify_certificate(doc) == want
        assert time.perf_counter() - t0 < 1.0
    doc["instance"]["w"] = certs.word_to_json(parse_word("x1x0", K))
    doc["digest"] = certs.digest(doc["instance"])
    assert certs.verify_certificate(doc).detail == "w is not prefix-valid"


def test_family_size_limit():
    check_family_size(2, 21)  # 2**22 - 1 words
    check_family_size(1, MAX_UNIVERSE - 1)
    for k, n in [(2, 22), (3, 14), (1, MAX_UNIVERSE), (0, MAX_UNIVERSE), (10**6, 2)]:
        with pytest.raises(DomainTooLarge):
            check_family_size(k, n)
    for k, n in [(-1, 3), (2, -1), (0, -1)]:
        with pytest.raises(IndexOutOfRange):
            check_family_size(k, n)


@pytest.mark.parametrize("N, n", [(-1, 0), (3, -1), (3, 5), (-2, -1)])
def test_coloring_header_with_empty_domain(N, n):
    doc = {"type": "coloring", "k": 2, "N": N, "n": n, "ell": 2, "table": []}
    with pytest.raises(IndexOutOfRange, match="empty domain"):
        certs.coloring_from_json(doc)
    with pytest.raises(IndexOutOfRange, match="empty domain"):
        Coloring.check_header(2, N, n)


def test_family_serialization_roundtrip():
    fam = FiniteFamily.from_words(K, 4, [Word(K, ()), Word(K, (0, 1)), Word(K, (1,))])
    doc = certs.family_to_json(fam)
    assert certs.family_from_json(doc).mask == fam.mask


@pytest.mark.parametrize("k", [2, 3, 10, 11])
def test_family_codec_matches_word_route(k):
    # texts written from ranks, and masks read back from digit strings,
    # against format_word/parse_word; k = 11 takes the word route
    rng = random.Random(k)
    n = 3 if k >= 10 else 5
    size = FiniteFamily.full(k, n).universe_size
    for density in range(1, 5):
        for _ in range(5):
            mask = (1 << size) - 1
            for _ in range(density):
                mask &= rng.getrandbits(size)
            fam = FiniteFamily(k, n, mask)
            doc = certs.family_to_json(fam)
            assert doc["words"] == [format_word(w) for w in fam.words()]
            assert certs.family_from_json(doc).mask == mask

    def outcome(read):
        try:
            return read().mask
        except Exception as exc:
            return type(exc), str(exc)

    good = doc["words"][:3]
    for bad in ["12", " 01", "1_0", "+1", "\u00b2", "x0", "0" * (n + 1), "", "-", "[1]0", 7]:
        texts = good + [bad] + good
        want = outcome(lambda: FiniteFamily.from_words(k, n, [parse_word(t, k) for t in texts]))
        got = outcome(lambda: certs.family_from_json({"k": k, "N": n, "words": texts}))
        assert got == want, bad


def test_coloring_serialization_roundtrip():
    c = Coloring.from_function(K, 3, 1, 2, lambda w: len(w) % 2)
    doc = certs.coloring_to_json(c)
    back = certs.coloring_from_json(doc)
    assert back == c and back.n == 1


def _walk_total(k, n_horizon, dim, ell, table):
    """The constructor's totality check, by walking the whole domain word by word."""
    domain = list(var_words(k, n_horizon, dim=dim))
    for w in domain:
        if w not in table:
            return f"coloring not total: missing {format_word(w)}"
        if not 0 <= table[w] < ell:
            return f"color {table[w]} out of range for {format_word(w)}"
    extra = sorted(set(table) - set(domain), key=Word.key)
    return f"{format_word(extra[0])} is outside the coloring's domain" if extra else None


@pytest.mark.parametrize("k, n_horizon, dim", [(2, 4, 0), (2, 4, 1), (3, 3, 2), (1, 5, 1)])
def test_validate_total_matches_domain_walk(k, n_horizon, dim):
    # totality is checked when a coloring is built from a mapping
    rng = random.Random(k * 100 + n_horizon * 10 + dim)
    words = list(var_words(k, n_horizon, dim=dim))
    outside = [parse_word(t, k) for t in ("0" * (n_horizon + 1), "x0" * (dim + 1) + "x" + str(dim + 1))]
    for trial in range(40):
        table = {w: rng.randrange(2) for w in words}
        defect = trial % 4
        if defect == 1:
            del table[rng.choice(words)]
        elif defect == 2:
            table[rng.choice(outside)] = 0
        elif defect == 3:
            table[rng.choice(words)] = rng.choice([-1, 2])
        try:
            Coloring(k, n_horizon, dim, 2, table)
            got = None
        except InvalidWord as exc:
            got = str(exc)
        assert got == _walk_total(k, n_horizon, dim, 2, table)
        assert (got is None) == (defect == 0)


def test_graph_serialization_roundtrip():
    g = GraphSpec.from_pairs(4, [(0, 1), (2, 3)])
    assert certs.graph_from_json(certs.graph_to_json(g)) == g


def test_csl_verifier_bounded_by_coloring(docs):
    # the witness depth is not digested; patterns are walked lazily and the
    # first image outside the domain ends the walk (listing every pattern
    # to depth 18 took about 1.7 s, doubling per step)
    doc = json.loads(certs.canonical_json(docs["csl"]))
    assert certs.verify_certificate(doc).ok
    doc["witness"]["depth"] = 18
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 0.5
    assert not res.ok


@pytest.mark.parametrize("tamper", ["drop", "reorder", "stale", "garbage"])
def test_csl_checked_pairs_must_be_the_pattern_walk(docs, tamper):
    # the listed (u, W[u]) pairs used to be ignored: each of these verified OK
    doc = json.loads(certs.canonical_json(docs["csl"]))
    assert certs.verify_certificate(doc) == (True, "csl", "3 checks")
    checked = doc["witness"]["checked"]
    if tamper == "drop":
        del doc["witness"]["checked"]
    elif tamper == "reorder":
        checked.reverse()
    elif tamper == "stale":
        checked[1][1] = checked[0][1]
    else:
        doc["witness"]["checked"] = [["garbage"]]
    assert not certs.verify_certificate(doc).ok


def test_cdrt_verifier_bounded_by_coloring(docs):
    # pattern lengths whose cut in the word is missing or past N are passed
    # over whole; walking every pattern to depth 16 took about 0.9 s
    doc = json.loads(certs.canonical_json(docs["cdrt"]))
    want = certs.verify_certificate(doc)
    assert want.ok
    doc["instance"]["depth"] = 16
    doc["digest"] = certs.digest(doc["instance"])
    t0 = time.perf_counter()
    assert certs.verify_certificate(doc) == want
    assert time.perf_counter() - t0 < 0.5


def _phi_doc(n, images):
    g = GraphSpec.from_pairs(n, [])
    return embedding_certificate_doc(g, images, "phi", n)


def test_embedding_images_must_be_distinct():
    # 400 identical empty images of an edgeless graph used to verify OK
    res = certs.verify_certificate(_phi_doc(400, [Word(1, ())] * 400))
    assert not res.ok and res.detail == "images are not distinct"
    res = certs.verify_certificate(_phi_doc(2, [Word(2, (0,)), Word(2, (0, 0))]))
    assert not res.ok and res.detail == "image not over the alphabet {0}"


def test_large_edgeless_embedding_verifies_quickly():
    doc = _phi_doc(400, [Word(1, (0,) * i) for i in range(400)])
    t0 = time.perf_counter()
    res = certs.verify_certificate(doc)
    assert time.perf_counter() - t0 < 1.0
    assert res.ok and res.detail == f"{400 * 399 // 2} checks"


@pytest.mark.parametrize(
    "n, rows",
    [(3, ["010", "000", "000"]), (2, ["01"]), (2, ["11", "10"]), (2, ["01", "1x"]), (2, "0110")],
    ids=["asymmetric", "row-count", "self-loop", "character", "not-a-list"],
)
def test_embedding_graph_is_malformed(docs, n, rows):
    doc = json.loads(certs.canonical_json(docs["embedding"]))
    doc["instance"]["graph"] = {"type": "graph", "n": n, "rows": rows}
    doc["digest"] = certs.digest(doc["instance"])
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate")


@pytest.mark.parametrize(
    "field, value",
    [("mode", "zzz"), ("mode", ...), ("horizon", "x"), ("horizon", [1]), ("horizon", None), ("horizon", 1)],
    ids=["mode-zzz", "mode-dropped", "horizon-text", "horizon-list", "horizon-null", "horizon-1"],
)
def test_embedding_mode_and_horizon_are_read(docs, field, value):
    # each verified OK while the verifier read neither; the images have lengths 1 to 3
    doc = json.loads(certs.canonical_json(docs["embedding"]))
    if value is ...:
        del doc["instance"][field]
    else:
        doc["instance"][field] = value
    doc["digest"] = certs.digest(doc["instance"])
    assert not certs.verify_certificate(doc).ok


def test_triangle_free_matches_triple_walk():
    from itertools import combinations

    for g in all_graphs(5):
        walk = not any(
            g.adj(a, b) and g.adj(b, c) and g.adj(a, c) for a, b, c in combinations(range(5), 3)
        )
        assert g.is_triangle_free() == walk


def test_brown_subset_must_name_distinct_parts(docs):
    # a subset entry of 99 died with IndexError, and -1 aliased the last part
    doc = json.loads(certs.canonical_json(docs["brown"]))
    subset = doc["witness"]["subset"]
    for bad, detail in [
        (subset + [99], "subset index outside the parts"),
        (subset + [-1], "subset index outside the parts"),
        (subset + subset[:1], "subset repeats a part"),
    ]:
        doc["witness"]["subset"] = bad
        assert certs.verify_certificate(doc) == (False, "brown", detail)
    doc["witness"]["subset"] = subset
    doc["witness"]["index"] = 99
    assert certs.verify_certificate(doc) == (False, "brown", "selected index outside subset")


def test_split_tau_walk_bounded_by_horizon(docs):
    # with ell past the horizon, a length-N counterexample sends the walk
    # over every tau with |tau| <= ell: 2^41 words for ell = 40
    doc = json.loads(certs.canonical_json(docs["split"]))
    inst = doc["instance"]
    dec = certs.decomposition_from_json(inst["decomposition"])
    s_tilde = certs.family_from_json(inst["b"]) | (dec.syndetic - dec.part)
    sigma = next(w for w in s_tilde.complement().words() if len(w) == dec.N)
    doc["witness"]["counterexample"] = certs.word_to_json(sigma)
    inst["decomposition"]["ell"] = 40
    doc["digest"] = certs.digest(inst)
    t0 = time.perf_counter()
    assert certs.verify_certificate(doc) == (False, "split", "ell outside the horizon")
    assert time.perf_counter() - t0 < 1.0


def _part_json(inst):
    return certs.family_to_json(certs.decomposition_from_json(inst["decomposition"]).part)


@pytest.mark.parametrize(
    "kind, tamper, detail",
    [
        ("split", lambda inst: inst.update(c=inst["b"]), "B, C do not partition P"),
        ("split", lambda inst: inst.update(c=_part_json(inst)), "B, C do not partition P"),
        ("brown", lambda inst: inst.update(parts=inst["parts"][:1] * 2), "parts overlap"),
        ("brown", lambda inst: inst.update(parts=inst["parts"][:1]), "parts do not cover P"),
    ],
    ids=["split-cover", "split-overlap", "brown-overlap", "brown-cover"],
)
def test_partition_tamper_names_its_check(docs, kind, tamper, detail):
    # the split and brown identities follow from these checks (B and the
    # parts lie in P, which lies in T), and are not checked apart from them
    doc = json.loads(certs.canonical_json(docs[kind]))
    tamper(doc["instance"])
    doc["digest"] = certs.digest(doc["instance"])
    assert certs.verify_certificate(doc) == (False, kind, detail)


def _word_doc(k, *symbols):
    return certs.word_to_json(Word(k, symbols))


@pytest.mark.parametrize(
    "kind, field, word, detail",
    [
        ("csl", "word", _word_doc(K, 3, 2), "word is not prefix-valid"),
        ("csl", "word", _word_doc(K, 0, 0, 0, 0, 2, 3), "image of 0 leaves the domain"),
        ("cdrt", "word", _word_doc(K, 0, 1, 2, 3, 0), "pullback mismatch"),
        ("cdrt", "both", (_word_doc(0, 0, 1, 3, 2), _word_doc(K, 0, 1, 3, 2)), "pullback is not prefix-valid"),
        ("prehomog", "z_word", _word_doc(K, 3, 2, 4), "z is not prefix-valid"),
        ("prehomog", "z_word", _word_doc(K, 0, 2, 3), "z does not start with a pure variable prefix"),
        ("prehomog", "w_hat", _word_doc(K, 2, 3), "w_hat is not compose(w, z)"),
    ],
    ids=["csl-prefix", "csl-domain", "cdrt-mismatch", "cdrt-prefix", "prehomog-z", "prehomog-pure", "prehomog-compose"],
)
def test_coloring_kind_tamper_names_its_check(docs, kind, field, word, detail):
    doc = json.loads(certs.canonical_json(docs[kind]))
    if field == "both":  # the pullback stays the word of w_hat's symbols
        doc["witness"]["w_hat"], doc["witness"]["word"] = word
    else:
        doc["witness"][field] = word
    assert certs.verify_certificate(doc) == (False, kind, detail)


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("stem", certs.word_to_json(Word(3, ())), "stem is not a 0-variable word"),
        ("stem", _word_doc(K, K), "stem is not a 0-variable word"),
        ("coloring", certs.coloring_to_json(Coloring.constant(K, 8, 0, 2)),
         "prehomogeneity needs a coloring of dimension >= 1"),
        ("coloring", certs.coloring_to_json(Coloring.constant(K, 8, 2, 2)), "stem is not a 1-variable word"),
    ],
    ids=["stem-alphabet", "stem-variable", "coloring-dim0", "coloring-dim2"],
)
def test_prehomog_stem_and_dimension_are_checked(docs, field, value, detail):
    # the extensions t = stem . x_n . tail are (n+1)-variable words only for an
    # n-variable stem; the first three of these verified OK, walking words
    # that were not extensions (over a dimension-0 coloring, x_n is a letter)
    doc = json.loads(certs.canonical_json(docs["prehomog"]))
    doc["instance"][field] = value
    doc["digest"] = certs.digest(doc["instance"])
    assert certs.verify_certificate(doc) == (False, "prehomog", detail)


def _graph_doc(*rows):
    return {"type": "graph", "n": len(rows), "rows": list(rows)}


@pytest.mark.parametrize(
    "kind, tamper, detail",
    [
        ("embedding", lambda doc: doc["witness"]["words"].pop(), "image count mismatch"),
        ("embedding", lambda doc: doc["instance"].update(graph=_graph_doc("011", "101", "110")),
         "instance graph has a triangle"),
        ("embedding", lambda doc: doc["instance"].update(graph=_graph_doc("010", "100", "000")),
         "edge mismatch at (1,2)"),
        # the phi images of the same path keep its edges, but - holds no variable
        ("embedding", lambda doc: doc["witness"].update(words=[_word_doc(1), _word_doc(1, 1), _word_doc(1, 0, 1)]),
         "greedy image outside the vertex set"),
        ("envelope", lambda doc: doc["witness"].update(word=_word_doc(1, 2, 1)),
         "envelope is not a valid variable word"),
        # x0 .. x5 against two members, whose bound is 2^2 + 2 - 1 = 5
        ("envelope", lambda doc: doc["witness"].update(word=_word_doc(1, *range(1, 7)), variable_count=6),
         "variable count above the bound"),
        ("envelope", lambda doc: doc["witness"]["assignments"].pop(), "no assignment for 00"),
    ],
    ids=["image-count", "triangle", "edge", "vertex-set", "valid-word", "above-bound", "no-assignment"],
)
def test_embedding_and_envelope_tamper_names_its_check(docs, kind, tamper, detail):
    # each tamper trips its check with every earlier check holding, so no
    # earlier check implies it
    doc = json.loads(certs.canonical_json(docs[kind]))
    tamper(doc)
    doc["digest"] = certs.digest(doc["instance"])
    assert certs.verify_certificate(doc) == (False, kind, detail)


@pytest.mark.parametrize(
    "kind, tamper, detail",
    [
        ("line-letter", lambda doc: doc["witness"].update(generator=_word_doc(K, 2, 3)),
         "generator is not one-dimensional"),
        # length N = 5: the words S(1).a would leave the coloring's domain
        ("line-letter", lambda doc: doc["witness"].update(generator=_word_doc(K, 2, 0, 0, 0, 0)),
         "line does not fit the horizon"),
        # a fourth element: the bound over min(k, 2) letters (3 <= 4) holds, the exact count fails
        ("tree", lambda doc: doc["instance"]["elements"].append(_word_doc(K, 0)), "element set mismatch"),
        ("line-letter", lambda doc: doc.update(checked_count=0), "empty verification"),
    ],
    ids=["one-dimensional", "horizon", "tree-count", "empty"],
)
def test_line_tree_and_count_tamper_names_its_check(docs, kind, tamper, detail, monkeypatch):
    # each tamper trips its check with every earlier check holding; none
    # builds a tree, so the exact count answers before the set comparison,
    # whose message it shares
    import varword.trees as trees_mod

    def no_tree(g):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(trees_mod, "tree_from_generator", no_tree)
    doc = json.loads(certs.canonical_json(docs[kind]))
    tamper(doc)
    doc["digest"] = certs.digest(doc["instance"])
    assert certs.verify_certificate(doc) == (False, kind, detail)


def test_embedding_graph_with_empty_domain_is_malformed(docs):
    # a negative vertex count is refused at the graph's header
    doc = json.loads(certs.canonical_json(docs["embedding"]))
    doc["instance"]["graph"] = {"type": "graph", "n": -1, "rows": []}
    doc["digest"] = certs.digest(doc["instance"])
    detail = "malformed certificate: <certificate graph>:1:1: graph with n=-1 has an empty domain: n < 0"
    assert certs.verify_certificate(doc) == (False, "embedding", detail)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_number_is_malformed(docs, value):
    # JSON's Infinity died in int() with an OverflowError traceback
    doc = json.loads(certs.canonical_json(docs["line-letter"]))
    doc["witness"]["letter"] = value
    res = certs.verify_certificate(json.loads(certs.canonical_json(doc)))
    assert not res.ok and res.detail.startswith("malformed certificate")


def test_deeply_nested_instance_is_malformed(docs):
    doc = json.loads(certs.canonical_json(docs["line-letter"]))
    nested = []
    for _ in range(100_000):
        nested = [nested]
    doc["instance"]["table"] = nested
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate")


# ---------------------------------------------------------------------------
# one-node mutations of every kind


def _sites(node, path):
    """(path, options) of every node under ``path`` that can be mutated:
    a scalar is set to 0, -1, 10**9 or a string, a list becomes a dict,
    and a dict loses one key."""
    if isinstance(node, dict):
        yield path, [("drop", key) for key in node]
        for key, child in node.items():
            yield from _sites(child, path + (key,))
    elif isinstance(node, list):
        yield path, [("dict", None)]
        for i, child in enumerate(node):
            yield from _sites(child, path + (i,))
    elif isinstance(node, (int, str)):
        yield path, [("set", v) for v in (0, -1, 10**9, "x") if v != node]


def _field(path):
    return tuple("*" if type(key) is int else key for key in path)


def _grouped_sites(docs):
    """Per kind, the canonical JSON and its mutable nodes, grouped by field:
    paths that differ only in list indices share a group, so that a family's
    thousands of words weigh as much as one witness field."""
    out = {}
    for kind, doc in docs.items():
        blob = certs.canonical_json(doc)
        tree = json.loads(blob)
        groups = {}
        for path, options in (site for part in ("instance", "witness") for site in _sites(tree[part], (part,))):
            if options:
                groups.setdefault(_field(path), []).append((path, options))
        out[kind] = blob, list(groups.values())
    return out


@pytest.fixture(scope="module")
def mutation_sites(docs):
    return _grouped_sites(docs)


@pytest.fixture(scope="module")
def small_docs(docs):
    """``docs`` with the two kinds whose verifiers re-read a large instance
    rebuilt over smaller ones (a 2-stage builder at N = 9, prehomog over a
    coloring of A^{<=5})."""
    small = dict(docs)
    dec = random_piecewise_syndetic(random.Random(21), K, 9, 1, 2, 0.95, 0.95)
    small["builder-trace"] = builder_certificate_doc(dec, iterate_builder(dec, 2))
    f1 = Coloring.constant(K, 5, 1, 2)
    w = parse_word("x0x1x2x3x4", K)
    one = one_step_prehomog(w, Word(K, ()), f1, depth=1, verify_tail=1)
    small["prehomog"] = prehomog_certificate_doc(f1, w, one, 1)
    return small


@pytest.fixture(scope="module")
def small_mutation_sites(small_docs):
    """As ``mutation_sites``, over ``small_docs``."""
    return _grouped_sites(small_docs)


def _mutated(blob, path, op, arg):
    """The certificate ``blob`` with one mutation applied at ``path``, re-digested."""
    doc = json.loads(blob)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == "drop":
        del node[path[-1]][arg]
    elif op == "dict":
        node[path[-1]] = {str(i): v for i, v in enumerate(node[path[-1]])}
    else:
        node[path[-1]] = arg
    doc["digest"] = certs.digest(doc["instance"])
    return doc


def _int_paths(blob):
    """The first path of each field of the instance and witness that holds
    an integer, and the top-level ``checked_count``."""
    doc = json.loads(blob)
    first = {}
    for part in ("instance", "witness"):
        for path, _ in _sites(doc[part], (part,)):
            node = doc
            for key in path:
                node = node[key]
            if type(node) is int:
                first.setdefault(_field(path), path)
    return [*first.values(), ("checked_count",)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_integer_fields_take_only_integers(small_docs, kind):
    # int(...) took each of these, so one certificate had many accepted forms
    blob = certs.canonical_json(small_docs[kind])
    for path in _int_paths(blob):
        for value in ("1", True, 1.0):
            res = certs.verify_certificate(_mutated(blob, path, "set", value))
            assert not res.ok, (path, value)
            if path[:2] != ("witness", "elements"):  # compared with the instance's, not read
                assert res.detail.startswith("malformed certificate:"), (path, value, res.detail)


@pytest.mark.parametrize("schema", ["1", True, 1.0])
def test_schema_must_be_the_integer(docs, schema):
    doc = json.loads(certs.canonical_json(docs["csl"]))
    doc["schema"] = schema
    assert certs.verify_certificate(doc) == (False, "csl", f"unsupported schema {schema}")


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=30, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_certificate_never_raises(mutation_sites, kind, data):
    blob, groups = mutation_sites[kind]
    path, options = data.draw(st.sampled_from(data.draw(st.sampled_from(groups))))
    op, arg = data.draw(st.sampled_from(options))
    assert isinstance(certs.verify_certificate(_mutated(blob, path, op, arg)), certs.VerifyResult)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_field_mutation_never_raises(small_mutation_sites, kind):
    # each (field, mutation) pair the property above can draw, applied at
    # the first and the last path of its field that offer it: a brown
    # subset [0, 1] with index 0 raised IndexError only when its last
    # entry was pushed outside the parts
    blob, groups = small_mutation_sites[kind]
    ends = {}  # (field, option) -> (first path, last path) offering it
    for group in groups:
        for path, options in group:
            for option in options:
                first = ends.get((_field(path), option), (path,))[0]
                ends[_field(path), option] = first, path
    for (_, (op, arg)), paths in ends.items():
        for path in dict.fromkeys(paths):
            res = certs.verify_certificate(_mutated(blob, path, op, arg))
            assert isinstance(res, certs.VerifyResult), (path, op, arg)


# ---------------------------------------------------------------------------
# named tampers of the largeness checks, and one hostile corpus that trips
# every check the verifier makes


def _split_brown_families(doc):
    """The decomposition and the families named by a split or brown certificate."""
    inst = doc["instance"]
    dec = certs.decomposition_from_json(inst["decomposition"])
    if doc["kind"] == "split":
        return dec, certs.family_from_json(inst["b"]), certs.family_from_json(inst["c"])
    return dec, [certs.family_from_json(p) for p in inst["parts"]]


def _misrouted_translator(doc):
    # a tau of length <= ell that does not take its sigma into S'
    dec, parts = _split_brown_families(doc)
    s_prime = brown_side(dec, parts, doc["witness"]["subset"])
    for pair in doc["witness"]["translators"]:
        sigma = certs.word_from_json(pair[0])
        tau = next((t for t in letter_words(K, dec.ell) if t.concat(sigma) not in s_prime), None)
        if tau is not None:
            pair[1] = certs.word_to_json(tau)
            return
    pytest.fail("every sigma reaches S' by every tau")


def _refuted_counterexample(doc):
    # a member of S~ is refuted by the empty tau
    s_tilde, _ = split_sides(*_split_brown_families(doc))
    doc["witness"]["counterexample"] = certs.word_to_json(next(s_tilde.words()))


def _refuted_removal_counterexample(doc):
    # a member of S' without the selected part is refuted by the empty tau
    dec, parts = _split_brown_families(doc)
    wit = doc["witness"]
    rest = brown_side(dec, parts, [j for j in wit["subset"] if j != wit["index"]])
    wit["removal_counterexample"] = certs.word_to_json(next(rest.words()))


def _leaking_anchor(doc):
    # an anchor outside T~ leaks at the empty tau
    _, t_tilde = split_sides(*_split_brown_families(doc))
    anchor = doc["witness"]["thick_anchors"][0]
    anchor[1] = certs.word_to_json(next(t_tilde.complement().words()))


LARGENESS_TAMPERS = [
    ("brown", _misrouted_translator, "translator misses the family"),
    ("brown", lambda doc: doc["witness"]["translators"].pop(), "translator map does not cover the quantifier range"),
    ("split", _refuted_counterexample, "counterexample refuted"),
    ("brown", _refuted_removal_counterexample, "removal counterexample refuted"),
    ("split", _leaking_anchor, "anchor block leaks out of the family"),
]


def _tampered(docs, kind, tamper):
    """A copy of ``docs[kind]`` after ``tamper``, re-digested unless the tamper set the digest."""
    doc = json.loads(certs.canonical_json(docs[kind]))
    tamper(doc)
    if doc["digest"] == docs[kind]["digest"]:
        doc["digest"] = certs.digest(doc["instance"])
    return doc


@pytest.mark.parametrize(
    "kind, tamper, detail", LARGENESS_TAMPERS, ids=["translator", "cover", "counterexample", "removal", "anchor"]
)
def test_largeness_tamper_names_its_check(docs, kind, tamper, detail):
    # each tamper trips its check with every earlier check holding, so no
    # earlier check implies it
    assert certs.verify_certificate(_tampered(docs, kind, tamper)) == (False, kind, detail)


def _break_claim(n):
    """Remove from P's syndetic side the stage-0 word that claim n checks first:
    the root, or its first glued word within the horizon."""

    def tamper(doc):
        dec = doc["instance"]["decomposition"]
        part = certs.decomposition_from_json(dec).part
        stage = doc["witness"]["stages"][0]
        word = certs.word_from_json(stage["generator"])  # stage 0's tree is its generator alone
        if n == 2:
            head = word.concat(substitute(certs.word_from_json(stage["block"]), (0,)))
            residue = certs.decomposition_from_json(stage["residue"]).part
            word = next(head.concat(s) for s in residue.words() if len(head) + len(s) <= part.N)
        dec["syndetic"] = _flip(dec["syndetic"], part.rank(word))

    return tamper


def _words_update(*words):
    return lambda doc: doc["witness"].update(words=[_word_doc(1, *w) for w in words])


CORPUS_TAMPERS = LARGENESS_TAMPERS + [
    ("csl", lambda doc: doc.update(schema=2), "unsupported schema 2"),
    ("csl", lambda doc: doc.update(kind="x"), "unknown kind 'x'"),
    ("csl", lambda doc: doc.update(digest="sha256:0"), "instance digest mismatch"),
    ("line-letter", lambda doc: doc.update(checked_count=0), "empty verification"),
    ("line-letter", lambda doc: doc["witness"].update(generator=_word_doc(K, 2, 3)), "generator is not one-dimensional"),
    ("line-letter", lambda doc: doc["witness"].update(generator=_word_doc(K, 2, 0, 0, 0, 0)),
     "line does not fit the horizon"),
    ("csl", lambda doc: doc["witness"].update(word=_word_doc(K, 3, 2)), "word is not prefix-valid"),
    ("csl", lambda doc: doc["witness"].update(word=_word_doc(K, 0, 0, 0, 0, 2, 3)), "image of 0 leaves the domain"),
    ("cdrt", lambda doc: doc["witness"].update(word=_word_doc(K, 0, 1, 2, 3, 0)), "pullback mismatch"),
    ("cdrt", lambda doc: doc["witness"].update(w_hat=_word_doc(0, 0, 1, 3, 2), word=_word_doc(K, 0, 1, 3, 2)),
     "pullback is not prefix-valid"),
    ("prehomog", lambda doc: doc["instance"].update(w=_word_doc(K, 3, 2)), "w is not prefix-valid"),
    ("prehomog", lambda doc: doc["witness"].update(z_word=_word_doc(K, 3, 2, 4)), "z is not prefix-valid"),
    ("prehomog", lambda doc: doc["witness"].update(z_word=_word_doc(K, 0, 2, 3)),
     "z does not start with a pure variable prefix"),
    ("prehomog", lambda doc: doc["witness"].update(w_hat=_word_doc(K, 2, 3)), "w_hat is not compose(w, z)"),
    ("prehomog", lambda doc: doc["instance"].update(coloring=certs.coloring_to_json(Coloring.constant(K, 8, 0, 2))),
     "prehomogeneity needs a coloring of dimension >= 1"),
    ("embedding", lambda doc: doc["witness"]["words"].pop(), "image count mismatch"),
    ("embedding", lambda doc: doc["witness"]["words"].__setitem__(0, _word_doc(K, 2)), "image not over the alphabet {0}"),
    ("embedding", _words_update((1,), (1,), (0, 0, 1)), "images are not distinct"),
    ("embedding", lambda doc: doc["instance"].update(graph=_graph_doc("011", "101", "110")),
     "instance graph has a triangle"),
    ("embedding", lambda doc: doc["instance"].update(graph=_graph_doc("010", "100", "000")), "edge mismatch at (1,2)"),
    ("embedding", _words_update((), (1,), (0, 1)), "greedy image outside the vertex set"),
    ("embedding", _words_update((0, 0, 1), (0, 1), (1,)), "image lengths not increasing"),
    ("envelope", lambda doc: doc["witness"].update(word=_word_doc(1, 2, 1)), "envelope is not a valid variable word"),
    ("envelope", lambda doc: doc["witness"].update(word=_word_doc(1, *range(1, 7)), variable_count=6),
     "variable count above the bound"),
    ("envelope", lambda doc: doc["witness"]["assignments"].pop(), "no assignment for 00"),
    ("split", lambda doc: doc["instance"].update(c=doc["instance"]["b"]), "B, C do not partition P"),
    ("brown", lambda doc: doc["instance"].update(parts=doc["instance"]["parts"][:1] * 2), "parts overlap"),
    ("brown", lambda doc: doc["instance"].update(parts=doc["instance"]["parts"][:1]), "parts do not cover P"),
    ("builder-trace", _break_claim(1), "claim 1 fails at -"),
    ("builder-trace", _break_claim(2), re.compile("claim 2 fails at [01]+")),
]


def _site_pattern(node):
    """A check's message as a regex: an f-string's fields, and the ``{}`` a
    word fills, match any text."""
    if isinstance(node, ast.Constant):
        return re.escape(node.value).replace(re.escape("{}"), ".*")
    return "".join(re.escape(v.value) if isinstance(v, ast.Constant) else ".*" for v in node.values)


def _check_sites():
    """(function, message regex) of each ``_need`` and ``raise CheckFailed``
    in ``certificates``, and each ``raise NotAPartition`` of the partition
    tests the verifier shares with the searches."""
    from varword import largeness

    sites = set()
    for module, names in ((certs, None), (largeness, {"split_sides", "check_partition"})):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "_need" or (names and fn.name not in names):
                continue
            for node in ast.walk(fn):
                name = getattr(getattr(node, "func", None), "id", None)
                if name in ("_need", "CheckFailed", "NotAPartition"):
                    sites.add((fn.name, _site_pattern(node.args[1] if name == "_need" else node.args[0])))
    return sites


def test_hostile_corpus_trips_every_check(docs, small_mutation_sites, monkeypatch):
    # a check no certificate trips could be replaced by True and no test
    # would notice; sites are named by function and message, and a site
    # trips where its condition is false (a ``_need``) or it raises
    tripped = set()
    need = certs._need

    def recording_need(cond, msg, *words):
        if not cond:
            tripped.add((sys._getframe(1).f_code.co_name, msg))
        need(cond, msg, *words)

    def recording(verifier):
        def run(instance, witness):
            try:
                return verifier(instance, witness)
            except CheckFailed as exc:
                tb = exc.__traceback__
                while tb.tb_next:
                    tb = tb.tb_next
                if tb.tb_frame.f_code.co_name != "_need":  # recorded by recording_need
                    tripped.add((tb.tb_frame.f_code.co_name, str(exc)))
                raise

        return run

    monkeypatch.setattr(certs, "_need", recording_need)
    for kind, verifier in list(certs._VERIFIERS.items()):
        monkeypatch.setitem(certs._VERIFIERS, kind, recording(verifier))
    for kind in ALL_KINDS:  # the deterministic (field, mutation) walk
        blob, groups = small_mutation_sites[kind]
        ends = {}
        for group in groups:
            for path, options in group:
                for option in options:
                    ends[_field(path), option] = ends.get((_field(path), option), (path,))[0], path
        for (_, (op, arg)), paths in ends.items():
            for path in dict.fromkeys(paths):
                certs.verify_certificate(_mutated(blob, path, op, arg))
    for kind, tamper, detail in CORPUS_TAMPERS:
        res = certs.verify_certificate(_tampered(docs, kind, tamper))
        assert not res.ok and (res.detail == detail if isinstance(detail, str) else detail.fullmatch(res.detail))
    sites = _check_sites()
    assert len(sites) > 60
    missed = {(fn, pat) for fn, pat in sites if not any(f == fn and re.fullmatch(pat, m) for f, m in tripped)}
    unknown = {(f, m) for f, m in tripped if not any(f == fn and re.fullmatch(pat, m) for fn, pat in sites)}
    assert (missed, unknown) == (set(), set())
