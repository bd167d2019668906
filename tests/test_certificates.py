import json
import random

import pytest

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
from varword.errors import DomainTooLarge, IndexOutOfRange
from varword.largeness import (
    MAX_UNIVERSE,
    FiniteFamily,
    check_family_size,
    random_piecewise_syndetic,
)
from varword.prehomog import csl_search, one_step_prehomog
from varword.search import iterate_builder, search_line_with_letter
from varword.words import Word, format_word, parse_word

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
    return out


ALL_KINDS = [
    "line-letter",
    "csl",
    "builder-trace",
    "prehomog",
    "cdrt",
    "embedding",
    "envelope",
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


def test_family_size_limit():
    check_family_size(2, 21)  # 2**22 - 1 words
    check_family_size(1, MAX_UNIVERSE - 1)
    for k, n in [(2, 22), (3, 14), (1, MAX_UNIVERSE), (0, MAX_UNIVERSE), (10**6, 2)]:
        with pytest.raises(DomainTooLarge):
            check_family_size(k, n)
    with pytest.raises(IndexOutOfRange):
        check_family_size(-1, 3)


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
    assert back.table == c.table and back.n == 1


def test_graph_serialization_roundtrip():
    g = GraphSpec.from_pairs(4, [(0, 1), (2, 3)])
    assert certs.graph_from_json(certs.graph_to_json(g)) == g
