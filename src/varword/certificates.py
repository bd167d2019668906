"""Certificate JSON schema (version 1): the writers, the checkers and the search-free verifier.

A certificate embeds its instance, a sha256 digest of the instance's
canonical JSON, and a kind-specific witness.  ``verify_certificate``
re-checks the witness against the embedded instance using definitions
only; it never calls any search routine, so a certificate accepted
here stands on its own.  Serialization is canonical (sorted keys, no
whitespace), which is what makes byte-identical reruns a meaningful
contract.

This is the only module that knows the format, and each certificate
has one accepted byte form.  Each kind has one witness writer,
``_<kind>_witness``, which returns the witness and its ``checked_count``
from objects.  ``<kind>_certificate_doc`` calls it on the objects its
search computed; ``_verify_<kind>`` parses the document, runs the kind's
one check on objects (the same function the search runs; a failed
check raises ``CheckFailed``) and calls the same writer on what it
checked.  ``verify_certificate`` then compares the canonical JSON of
that rebuild (``schema``, ``tool``, ``kind``, ``digest``, ``witness`` and
``checked_count``, and the key sets) with the document's, last, so a
derived field (a count, a bound, a list of checked words) is never read,
and a document that differs anywhere fails as ``non-canonical
certificate: <JSON pointer>``.  ``tool`` is compared too: a certificate
verifies under the version that wrote it.  The instance is not written
again, since the digest pins its bytes: each value reader accepts only
what its ``*_to_json`` writes (exact keys and ``type``, word dicts of
``k``, ``symbols`` and ``text``, family words and coloring tables in
rank order), and refuses any other form the same way.  Per kind, the
check:

- line-letter: ``check_line_letter``, on the hit of ``search_line_with_letter``;
- tree: the element set against ``tree_from_generator`` (``tree build`` runs no search);
- split: ``largeness.split_sides``, run by ``pw_split``;
- brown: ``largeness.check_partition`` and ``brown_side``, run by ``brown_select``;
- builder-trace: ``check_builder_stage``, on each stage of ``iterate_builder``;
- prehomog: ``check_prehomog``, on the hit of ``one_step_prehomog``;
- csl: ``check_csl``, on each candidate of ``csl_search``;
- cdrt: ``check_cdrt``, on the hit of ``pullback_certificate``;
- embedding: ``check_embedding``, on the hit of ``phi_embed`` or ``greedy_embed``;
- envelope: ``check_envelope``, on the hit of ``minimal_envelope``.

Split and brown re-read their translators and anchors word by word
(``_check_syndetic_witness``, ``_check_thick_witness``): the object route
beside the rank-space ``is_syndetic`` and ``is_thick`` the searches run.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import TYPE_CHECKING, Any, NamedTuple

from . import __version__
from .errors import CheckFailed, InvalidWord, VarwordError
from .words import (
    Word,
    compose,
    dimension,
    extend,
    first_occurrence,
    format_word,
    is_prefix_valid,
    is_var_word,
    letter_words,
    parse_word,
    reread,
    substitute,
    var_words,
)

if TYPE_CHECKING:
    from .colorings import Coloring
    from .henson import GraphSpec
    from .largeness import FiniteFamily, PwSyndeticDecomposition

# Serializing a word, wrapping a document and writing canonical JSON need
# only this module and ``words``; each reader and verifier below imports
# the domain module of its kind, so a command loads what it runs.

__all__ = [
    "SCHEMA",
    "TOOL",
    "canonical_json",
    "digest",
    "wrap",
    "word_to_json",
    "word_from_json",
    "coloring_to_json",
    "coloring_from_json",
    "family_to_json",
    "family_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "graph_to_json",
    "graph_from_json",
    "tree_to_json",
    "line_letter_certificate_doc",
    "tree_certificate_doc",
    "split_certificate_doc",
    "brown_certificate_doc",
    "builder_certificate_doc",
    "prehomog_certificate_doc",
    "csl_certificate_doc",
    "cdrt_certificate_doc",
    "embedding_certificate_doc",
    "envelope_certificate_doc",
    "check_line_letter",
    "check_builder_stage",
    "check_csl",
    "check_prehomog",
    "check_cdrt",
    "check_embedding",
    "check_envelope",
    "stem_extension_words",
    "VerifyResult",
    "verify_certificate",
]

SCHEMA = 1
TOOL = f"varword {__version__}"


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one per call


def canonical_json(obj: Any) -> str:
    return _ENCODER.encode(obj) + "\n"


def digest(obj: Any) -> str:
    import hashlib  # only here: a command that takes no digest never loads it

    return "sha256:" + hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def wrap(kind: str, instance: dict, witness: dict, checked_count: int) -> dict:
    return {
        "schema": SCHEMA,
        "tool": TOOL,
        "kind": kind,
        "instance": instance,
        "digest": digest(instance),
        "witness": witness,
        "checked_count": checked_count,
    }


# ---------------------------------------------------------------------------
# value writers and readers


def word_to_json(w: Word) -> dict:
    return {"k": w.k, "symbols": list(w.symbols), "text": format_word(w)}


def _json(value):
    """A witness value as JSON: a Word by ``word_to_json``, a tuple or list
    item by item, and an int, str or bool as itself."""
    if isinstance(value, Word):
        return word_to_json(value)
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


class _NonCanonical(CheckFailed):
    """The value at ``key`` of ``node``, a dict or list of the document, is
    not what its writer writes there (or should be absent, or is missing);
    ``verify_certificate`` names it by its JSON pointer."""

    def __init__(self, node, key):
        super().__init__(f"non-canonical certificate: .../{key}")
        self.node, self.key = node, key


def _int(x) -> int:
    """An integer field of a document; ``int(...)`` would also take "1",
    true and 1.0, giving one certificate many accepted byte forms."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


def _only(doc: dict, type_: str | None, *keys: str) -> None:
    """Refuse a value whose keys are not ``keys``, each read already, and
    ``type`` = type_ when one is given: the form its writer writes."""
    if type_ is not None:
        keys += ("type",)
        if doc.get("type") != type_:
            raise _NonCanonical(doc, "type")
    if len(doc) != len(keys):
        raise _NonCanonical(doc, min(doc.keys() - set(keys), key=str))


def word_from_json(doc: dict) -> Word:
    symbols = doc["symbols"]
    w = Word(_int(doc["k"]), tuple(_int(s) for s in symbols))
    if format_word(w) != doc["text"]:
        raise InvalidWord("word text and symbols disagree")
    if type(symbols) is not list:  # "" or {} reads as no symbols
        raise _NonCanonical(doc, "symbols")
    _only(doc, None, "k", "symbols", "text")
    return w


def _word_pairs(docs) -> list[tuple[Word, Word]]:
    return [(word_from_json(a), word_from_json(b)) for a, b in docs]


def coloring_to_json(c: Coloring) -> dict:
    return {
        "type": "coloring",
        "k": c.k,
        "N": c.N,
        "n": c.n,
        "ell": c.ell,
        "table": list(map(list, c.entries())),
    }


def coloring_from_json(doc: dict) -> Coloring:
    """The coloring of a table of rows [text, color] in rank order, which are
    compared with the domain's, not parsed.  Any other table is parsed word
    by word only to name its defect (not total, a color out of range); one
    that parses is not in rank order, and is refused as non-canonical."""
    from .colorings import Coloring

    k, n_horizon, dim = _int(doc["k"]), _int(doc["N"]), _int(doc["n"])
    Coloring.check_header(k, n_horizon, dim)
    rows = doc["table"]
    coloring = None
    try:
        texts, colors = [t for t, _ in rows], [c for _, c in rows]
    except (TypeError, ValueError):  # rows of another form
        pass
    else:
        coloring = Coloring.from_entries(k, n_horizon, dim, doc.get("ell"), texts, colors)
    if coloring is None:
        table = {parse_word(t, k): _int(c) for t, c in rows}
        Coloring(k, n_horizon, dim, _int(doc["ell"]), table)
        raise _NonCanonical(doc, "table")
    _only(doc, "coloring", "k", "N", "n", "ell", "table")
    return coloring


def family_to_json(f: FiniteFamily) -> dict:
    return {"type": "family", "k": f.k, "N": f.N, "words": f.texts()}


def family_from_json(doc: dict) -> FiniteFamily:
    """The family of a word list that is the family's own ``texts()``.

    For 2 <= k <= 10 that list is read by ``digit_mask``, which takes no
    other.  Any other list is read by ``from_texts`` only to name its
    defect; one it reads (out of rank order, a repeat, a text
    ``parse_word`` reads loosely) is refused as non-canonical unless, over
    other alphabets, it is the family's texts.
    """
    from ._family_text import digit_mask
    from .largeness import FiniteFamily, check_family_size

    k = _int(doc["k"])
    n = _int(doc["N"])
    check_family_size(k, n)
    texts = doc["words"]
    if not isinstance(texts, list):
        raise InvalidWord("family words are not a list")
    mask = digit_mask(k, n, texts) if 2 <= k <= 10 else None
    fam = FiniteFamily(k, n, mask) if mask is not None else FiniteFamily.from_texts(k, n, texts)
    if mask is None and fam.texts() != texts:
        raise _NonCanonical(doc, "words")
    _only(doc, "family", "k", "N", "words")
    return fam


def decomposition_to_json(dec: PwSyndeticDecomposition) -> dict:
    return {
        "type": "pw-decomposition",
        "ell": dec.ell,
        "syndetic": family_to_json(dec.syndetic),
        "thick": family_to_json(dec.thick),
    }


def decomposition_from_json(doc: dict) -> PwSyndeticDecomposition:
    from .largeness import PwSyndeticDecomposition

    dec = PwSyndeticDecomposition(
        family_from_json(doc["syndetic"]),
        family_from_json(doc["thick"]),
        _int(doc["ell"]),
    )
    _only(doc, "pw-decomposition", "syndetic", "thick", "ell")
    return dec


def graph_to_json(g: GraphSpec) -> dict:
    return {"type": "graph", "n": g.n, "rows": g.rows()}


def graph_from_json(doc: dict) -> GraphSpec:
    """The graph under the rules of the file form (``GraphSpec.from_rows``),
    which admit only the graph's own rows."""
    from .henson import GraphSpec

    rows = doc["rows"]
    if not isinstance(rows, list):
        raise InvalidWord("graph rows are not a list")
    g = GraphSpec.from_rows(_int(doc["n"]), rows, "<certificate graph>")
    _only(doc, "graph", "n", "rows")
    return g


# ---------------------------------------------------------------------------
# verification


class VerifyResult(NamedTuple):
    ok: bool
    kind: str
    detail: str = ""


def _need(cond: bool, msg: str, *words: Word) -> None:
    """Raise ``CheckFailed(msg)`` unless cond; ``words`` fill its ``{}``s, formatted only then."""
    if not cond:
        raise CheckFailed(msg.format(*map(format_word, words)) if words else msg)


def _geometric(k: int, lo: int, hi: int) -> int:
    """k^lo + ... + k^hi for lo <= hi + 1, the element count of levels
    lo..hi of a tree, in closed form: a hostile dimension costs no loop."""
    return hi + 1 - lo if k == 1 else (k ** (hi + 1) - k**lo) // (k - 1)


# ---------------------------------------------------------------------------
# the ten kinds: each writer beside its certificate builder and its verifier,
# which returns its own check count, the rebuilt witness and checked_count


def _line_letter_witness(g: Word, letter: int, color: int, checked) -> tuple[dict, int]:
    witness = {"generator": _json(g), "letter": letter, "color": color, "checked": _json(checked)}
    return witness, len(checked)


def line_letter_certificate_doc(coloring: Coloring, cert) -> dict:
    witness = _line_letter_witness(cert.line.generator, cert.letter, cert.color, cert.checked)
    return wrap("line-letter", coloring_to_json(coloring), *witness)


def check_line_letter(coloring: Coloring, g: Word, letter: int, color: int) -> tuple[Word, ...]:
    """The words S(0) and S(1).letter of the line S generated by ``g`` all
    have ``color``; returns them in that order, S(1) in lex order."""
    from .trees import tree_levels

    levels = tree_levels(g, len(g))  # NotOrdered for a bad generator; builds no level yet
    _need(dimension(g) == 1, "generator is not one-dimensional")
    _need(len(g) + 1 <= coloring.N, "line does not fit the horizon")
    _need(0 <= letter < coloring.k, "letter outside alphabet")
    checked = (*next(levels), *(extend(w, (letter,)) for w in next(levels)))
    for w in checked:
        _need(coloring(w) == color, "{} has the wrong color", w)
    return checked


def _verify_line_letter(instance: dict, witness: dict):
    coloring = coloring_from_json(instance)
    g = word_from_json(witness["generator"])
    letter, color = _int(witness["letter"]), _int(witness["color"])
    checked = check_line_letter(coloring, g, letter, color)
    return len(checked), *_line_letter_witness(g, letter, color, checked)


def tree_to_json(tree) -> dict:
    """The tree as ``tree build`` and ``tree iso`` report it; ``tree build``
    writes it beside its certificate, under the top-level key ``tree``."""
    from .trees import levels, size

    return {
        "generator": word_to_json(tree.generator),
        "dimension": tree.dimension,
        "elements": [word_to_json(e) for e in tree.elements],
        "levels": list(levels(tree)),
        "size": size(tree),
    }


def _tree_witness(tree) -> tuple[dict, int]:
    witness = {"generator": _json(tree.generator), "dimension": tree.dimension, "elements": _json(tree.elements)}
    return witness, len(tree.elements)


def tree_certificate_doc(tree) -> dict:
    """The tree's element set, with its generator as the witness."""
    return wrap("tree", {"type": "elements", "elements": _json(tree.elements)}, *_tree_witness(tree))


def _verify_tree(instance: dict, witness: dict):
    from .trees import tree_from_generator

    elems = [word_from_json(d) for d in instance["elements"]]
    _only(instance, "elements", "elements")
    g = word_from_json(witness["generator"])
    d = dimension(g)
    # the tree has k^0 + ... + k^d elements: compare before building it; the
    # count over min(k, 2) letters is no larger and bounds d before k^(d + 1)
    _need(_geometric(min(g.k, 2), 0, d) <= len(elems), "element set mismatch")
    _need(_geometric(g.k, 0, d) == len(elems), "element set mismatch")
    tree = tree_from_generator(g)
    _need(tree.element_set() == frozenset(elems), "element set mismatch")
    if tuple(elems) != tree.elements:  # the same words in another order
        raise _NonCanonical(instance, "elements")
    return len(elems), *_tree_witness(tree), {"tree": tree_to_json(tree)}  # ``tree build``'s report


def _check_syndetic_witness(fam: FiniteFamily, ell: int, translators) -> list[tuple[Word, Word]]:
    """Returns the (sigma, tau) pairs one per sigma, in sigma order, as
    ``is_syndetic`` writes them."""
    taus = {}
    for sigma, tau in translators:
        _need(len(tau) <= ell, "translator too long")
        _need(tau.concat(sigma) in fam, "translator misses the family")
        taus[sigma.symbols] = tau
    sigmas = list(letter_words(fam.k, fam.N - ell))
    _need(taus.keys() == {w.symbols for w in sigmas}, "translator map does not cover the quantifier range")
    return [(sigma, taus[sigma.symbols]) for sigma in sigmas]


def _check_thick_witness(fam: FiniteFamily, anchors) -> int:
    count = 0
    for ell, sigma in anchors:
        for tau in letter_words(fam.k, ell):
            _need(tau.concat(sigma) in fam, "anchor block leaks out of the family")
            count += 1
    return count


def _anchors(docs, ell: int) -> list[tuple[int, Word]]:
    """The thick anchors (j, sigma) for j = 0..ell, as ``is_thick`` finds
    them; each j is its place in the list, and is not read."""
    anchors = [(j, word_from_json(sigma)) for j, (_, sigma) in enumerate(docs)]
    _need(len(anchors) == ell + 1, "thick anchors do not run over 0..ell")
    return anchors


def _split_witness(translators, counterexample=None, anchors=()) -> tuple[dict, int]:
    """Side B with its translators, or side C with its counterexample and thick anchors."""
    if counterexample is None:
        return {"side": "B", "translators": _json(translators)}, 2 + len(translators)
    witness = {"side": "C", "counterexample": _json(counterexample), "thick_anchors": _json(anchors)}
    return witness, 2 + len(anchors)


def split_certificate_doc(dec: PwSyndeticDecomposition, b, c, res, translators=()) -> dict:
    """The split ``res = pw_split(dec, b, c)``; on side B, ``translators``
    are the syndeticity translators of the new syndetic side."""
    instance = {
        "type": "split-instance",
        "decomposition": decomposition_to_json(dec),
        "b": family_to_json(b),
        "c": family_to_json(c),
    }
    if res.side == "B":
        return wrap("split", instance, *_split_witness(translators))
    witness = _split_witness((), res.syndetic_check.counterexample, res.thick_evidence.witness.anchors)
    return wrap("split", instance, *witness)


def _verify_split(instance: dict, witness: dict):
    from .largeness import split_sides

    dec = decomposition_from_json(instance["decomposition"])
    _need(0 <= dec.ell <= dec.N, "ell outside the horizon")  # it bounds the tau walks
    b = family_from_json(instance["b"])
    c = family_from_json(instance["c"])
    _only(instance, "split-instance", "decomposition", "b", "c")
    s_tilde, t_tilde = split_sides(dec, b, c)  # NotAPartition unless B, C partition P
    count = 1
    if witness["side"] == "B":
        translators = _check_syndetic_witness(s_tilde, dec.ell, _word_pairs(witness["translators"]))
        return count + len(translators), *_split_witness(translators)
    sigma = word_from_json(witness["counterexample"])
    for tau in letter_words(dec.k, dec.ell):
        _need(tau.concat(sigma) not in s_tilde, "counterexample refuted")
        count += 1
    anchors = _anchors(witness["thick_anchors"], dec.ell)
    count += _check_thick_witness(t_tilde, anchors)
    return count, *_split_witness((), sigma, anchors)


def _brown_witness(index: int, subset, translators, removal_counterexample: Word, anchors) -> tuple[dict, int]:
    witness = {
        "index": index,
        "subset": _json(subset),
        "translators": _json(translators),
        "removal_counterexample": _json(removal_counterexample),
        "thick_anchors": _json(anchors),
    }
    return witness, len(translators) + 1


def brown_certificate_doc(dec: PwSyndeticDecomposition, parts, sel, translators) -> dict:
    """The selection ``sel = brown_select(dec, parts)``, with the syndeticity
    translators of its new syndetic side."""
    instance = {
        "type": "brown-instance",
        "decomposition": decomposition_to_json(dec),
        "parts": [family_to_json(p) for p in parts],
    }
    witness = _brown_witness(
        sel.index, sel.subset, translators, sel.removal_check.counterexample, sel.thick_evidence.witness.anchors
    )
    return wrap("brown", instance, *witness)


def _verify_brown(instance: dict, witness: dict):
    from .largeness import brown_side, check_partition

    dec = decomposition_from_json(instance["decomposition"])
    _need(0 <= dec.ell <= dec.N, "ell outside the horizon")  # it bounds the tau walks
    parts = [family_from_json(d) for d in instance["parts"]]
    _only(instance, "brown-instance", "decomposition", "parts")
    check_partition(dec.part, parts)
    idx = _int(witness["index"])
    subset = [_int(i) for i in witness["subset"]]
    _need(all(0 <= j < len(parts) for j in subset), "subset index outside the parts")
    _need(len(set(subset)) == len(subset), "subset repeats a part")
    _need(idx in subset, "selected index outside subset")
    s_prime = brown_side(dec, parts, subset)
    translators = _check_syndetic_witness(s_prime, dec.ell, _word_pairs(witness["translators"]))
    count = len(translators)
    rest = brown_side(dec, parts, [j for j in subset if j != idx])
    sigma = word_from_json(witness["removal_counterexample"])
    for tau in letter_words(dec.k, dec.ell):
        _need(tau.concat(sigma) not in rest, "removal counterexample refuted")
        count += 1
    # T' = complement(rest), and S' & T' is parts[idx]
    anchors = _anchors(witness["thick_anchors"], dec.ell)
    count += _check_thick_witness(rest.complement(), anchors)
    return count, *_brown_witness(idx, sorted(subset), translators, sigma, anchors)  # a set, ascending


def _builder_witness(stages) -> tuple[dict, int]:
    """``stages`` holds (generator, block, residue, claim 1, claim 2) per
    stage: the residue is its decomposition's JSON, which its reader takes
    in this one form only, so the verifier passes the document's own; each
    claim is an (ok, checked, skipped) record."""
    claim = ("ok", "checked", "skipped")
    witness = {
        "stages": [
            {
                "generator": _json(g),
                "block": _json(block),
                "residue": residue,
                "claim1": dict(zip(claim, claim1)),
                "claim2": dict(zip(claim, claim2)),
            }
            for g, block, residue, claim1, claim2 in stages
        ]
    }
    return witness, sum(claim1[1] + claim2[1] for *_, claim1, claim2 in stages)


def builder_certificate_doc(dec: PwSyndeticDecomposition, trace) -> dict:
    instance = {"type": "builder-instance", "decomposition": decomposition_to_json(dec)}
    stages = [
        (
            st.tree.generator,
            st.block,
            decomposition_to_json(st.residue.decomposition),
            (st.claim1_ok, st.claim1_checked, st.claim1_skipped),
            (st.claim2_ok, st.claim2_checked, st.claim2_skipped),
        )
        for st in trace.stages
    ]
    return wrap("builder-trace", instance, *_builder_witness(stages))


def check_builder_stage(p: FiniteFamily, g: Word, block: Word, residue: FiniteFamily) -> tuple[int, int, int, int]:
    """Claims 1 and 2 of a builder stage against P; a failed one raises
    ``CheckFailed`` at its first failing word.

    Claim 1: each word of g's tree within P's horizon lies in P.  Claim 2:
    so does each top-level word glued to an instance of ``block`` and a
    word of ``residue``, within the horizon.  Only the levels within the
    horizon are built, so the work is bounded by |P|.  Returns (levels
    built, claim 1 checked, claim 2 checked, claim 2 skipped); the caller
    counts from sizes the words past the horizon: the levels not built,
    and all of claim 2's when the top level is one of them.
    """
    from .largeness import FiniteFamily, glued_inclusion
    from .trees import tree_levels

    just_empty = FiniteFamily(p.k, 0, 1)
    top, built, c1 = (), 0, 0
    for built, top in enumerate(tree_levels(g, p.N), 1):
        ok, checked, _, bad = glued_inclusion(top, just_empty, p)
        if not ok:
            raise CheckFailed(f"claim 1 fails at {format_word(bad)}")
        c1 += checked
    c2 = s2 = 0
    if len(g) <= p.N:  # the top level is within the horizon
        insts = [substitute(block, a) for a in letter_words(p.k, 1, min_len=1)]
        heads = [t.concat(wa) for t in top for wa in insts]
        ok, c2, s2, bad = glued_inclusion(heads, residue, p)
        if not ok:
            raise CheckFailed(f"claim 2 fails at {format_word(bad)}")
    return built, c1, c2, s2


def _verify_builder(instance: dict, witness: dict):
    """Every stage's claims by ``check_builder_stage``, against the instance's P.

    The words past the horizon are counted from the sizes alone (level j
    has k^j words).  When a level is left unbuilt, claim 1 skips at least
    the k^dim words of the top level, which have more than
    dim * (bit_length(k) - 1) bits; a claim 1 record of no more bits is
    refused before that count is built, so a hostile dimension costs no
    more than the record it comes with.
    """
    dec = decomposition_from_json(instance["decomposition"])
    _only(instance, "builder-instance", "decomposition")
    p = dec.part
    count, stages = 0, []
    for i, stage in enumerate(witness["stages"]):
        g = word_from_json(stage["generator"])
        _need(g.k == p.k, "generator alphabet differs from the instance's")
        block = word_from_json(stage["block"])
        _need(block.k == p.k, "block alphabet differs from the instance's")
        res_dec = decomposition_from_json(stage["residue"])
        _need(res_dec.k == p.k, "residue alphabet differs from the instance's")
        _need(res_dec.ell == dec.ell, f"stage {i}: residue ell differs from the instance's")
        residue = res_dec.part
        built, c1, c2, s2 = check_builder_stage(p, g, block, residue)
        dim = dimension(g)
        recorded = _int(stage["claim1"]["skipped"])
        _need(
            built > dim or dim * (p.k.bit_length() - 1) < recorded.bit_length(),
            f"stage {i}: claim 1 record mismatch",
        )
        if len(g) > p.N:  # past the horizon, k^(dim + 1) glued words per residue word
            s2 = p.k ** (dim + 1) * residue.mask.bit_count()
        stages.append((g, block, stage["residue"], (True, c1, _geometric(p.k, built, dim)), (True, c2, s2)))
        count += c1 + c2
    return count, *_builder_witness(stages)


def stem_extension_words(stem: Word, n: int, tail_max: int, w_hat: Word, horizon: int):
    """Each t = stem . x_n . tail, |tail| <= tail_max, whose image w_hat[t] can be colored,
    by (length, lex); tails run over A | {x_0..x_n}, A the stem's alphabet.

    For a prefix-valid w_hat: w_hat[t] is w_hat cut before its first
    x_|t|, so the lengths walked are those below w_hat's dimension whose
    cut is at most the horizon, and these first occurrences ascend.  By
    the cut rule (CHANGES.md), for an n-variable stem each image walked
    is an (n+1)-variable word of length at most the horizon.
    """
    k = stem.k
    base = extend(stem, (k + n,))
    symbols = list(range(k)) + [k + j for j in range(n + 1)]
    for tail_len in range(min(tail_max, dimension(w_hat) - 1 - len(base)) + 1):
        if first_occurrence(w_hat, len(base) + tail_len) > horizon:
            break
        for tail in product(symbols, repeat=tail_len):
            yield extend(base, tail)


def _prehomog_witness(w_hat: Word, color: int, z: Word, pairs) -> tuple[dict, int]:
    return {"w_hat": _json(w_hat), "color": color, "z_word": _json(z)}, len(pairs)


def prehomog_certificate_doc(coloring: Coloring, w: Word, out, verify_tail: int) -> dict:
    instance = {
        "type": "prehomog-instance",
        "coloring": coloring_to_json(coloring),
        "w": word_to_json(w),
        "stem": word_to_json(out.stem),
        "verify_tail": verify_tail,
    }
    return wrap("prehomog", instance, *_prehomog_witness(out.w_hat, out.color, out.z_word, out.checked))


def check_prehomog(
    coloring: Coloring, w: Word, stem: Word, tail_max: int, w_hat: Word, z: Word, color: int
) -> list[tuple[Word, Word]]:
    """w_hat = compose(w, z) for a z that keeps z_0..z_{|stem|} pure, and
    w_hat[t] has ``color`` for every colorable extension t of stem . x_n
    with a tail of length at most ``tail_max``.

    With w and z prefix-valid so is w_hat, and with the stem an
    n-variable word (n = coloring.n - 1) each t walked is an
    (n+1)-variable word: by the cut rule (CHANGES.md) every image walked
    is then colored, and the walk is bounded by the coloring.  Returns
    the (t, w_hat[t]) pairs checked, which may be none: an empty walk is
    for the caller to judge.
    """
    n = coloring.n - 1
    m = len(stem) + 1
    _need(is_prefix_valid(w), "w is not prefix-valid")
    _need(is_prefix_valid(z), "z is not prefix-valid")
    _need(
        z.symbols[:m] == tuple(z.k + j for j in range(m)),
        "z does not start with a pure variable prefix",
    )
    _need(compose(w, z) == w_hat, "w_hat is not compose(w, z)")
    _need(n >= 0, "prehomogeneity needs a coloring of dimension >= 1")
    _need(stem.k == coloring.k and is_var_word(stem, n), f"stem is not a {n}-variable word")
    pairs = []
    for t in stem_extension_words(stem, n, tail_max, w_hat, coloring.N):
        img = substitute(w_hat, t, omega=True)
        _need(coloring.get(img) == color, "color breaks at t={}", t)
        pairs.append((t, img))
    return pairs


def _verify_prehomog(instance: dict, witness: dict):
    coloring = coloring_from_json(instance["coloring"])
    w, stem = word_from_json(instance["w"]), word_from_json(instance["stem"])
    tail = _int(instance["verify_tail"])
    _only(instance, "prehomog-instance", "coloring", "w", "stem", "verify_tail")
    w_hat, z = word_from_json(witness["w_hat"]), word_from_json(witness["z_word"])
    color = _int(witness["color"])
    pairs = check_prehomog(coloring, w, stem, tail, w_hat, z, color)
    _need(pairs, "nothing verifiable within the horizon")
    return len(pairs), *_prehomog_witness(w_hat, color, z, pairs)


def _csl_witness(w: Word, color: int, depth: int, pairs) -> tuple[dict, int]:
    return {"word": _json(w), "color": color, "depth": depth, "checked": _json(pairs)}, len(pairs)


def csl_certificate_doc(coloring: Coloring, cert) -> dict:
    return wrap("csl", coloring_to_json(coloring), *_csl_witness(cert.word, cert.color, cert.depth, cert.checked))


def check_csl(coloring: Coloring, w: Word, color: int, depth: int) -> list[tuple[Word, Word]]:
    """W[u] lies in the domain and has ``color`` for every pattern u of the
    coloring's dimension up to ``depth``; returns the pairs (u, W[u]) in
    pattern order."""
    _need(is_prefix_valid(w), "word is not prefix-valid")
    # patterns are walked lazily: distinct patterns have distinct images,
    # so one leaves the domain within len(coloring.colors) + 1 steps
    pairs = []
    for u in var_words(coloring.k, depth, dim=coloring.n):
        img = substitute(w, u, omega=True)  # must be defined for every pattern
        c = coloring.get(img)
        _need(c is not None, "image of {} leaves the domain", u)
        _need(c == color, "color breaks at {}", u)
        pairs.append((u, img))
    _need(pairs, "empty pattern range")
    return pairs


def _verify_csl(instance: dict, witness: dict):
    coloring = coloring_from_json(instance)
    w = word_from_json(witness["word"])
    color, depth = _int(witness["color"]), _int(witness["depth"])
    pairs = check_csl(coloring, w, color, depth)
    return len(pairs), *_csl_witness(w, color, depth, pairs)


def _cdrt_witness(w_hat: Word, k: int, color: int, pairs) -> tuple[dict, int]:
    """w_hat over the empty alphabet, as the translated coloring's words
    are, and its pullback over the coloring's k letters."""
    witness = {"w_hat": _json(reread(w_hat, 0)), "word": _json(reread(w_hat, k)), "color": color}
    return witness, len(pairs)


def cdrt_certificate_doc(coloring: Coloring, pb, depth: int, w_hat: Word) -> dict:
    instance = {"type": "cdrt-instance", "coloring": coloring_to_json(coloring), "depth": depth}
    return wrap("cdrt", instance, *_cdrt_witness(w_hat, coloring.k, pb.color, pb.checked))


def check_cdrt(coloring: Coloring, w: Word, color: int, depth: int) -> list[tuple[Word, Word]]:
    """W[u] has ``color`` for every pattern u of the coloring's dimension up
    to ``depth`` whose image is colored.

    W[u] is W cut before its first x_|u|.  In a prefix-valid W these
    first occurrences ascend, and by the cut rule (CHANGES.md) every
    pattern of a length whose cut is at most N has a colored image, and
    no other has: the walk stops at the first longer cut, or past W's
    dimension.  Returns the (u, W[u]) pairs checked, which may be none:
    an empty walk is for the caller to judge.
    """
    _need(is_prefix_valid(w), "pullback is not prefix-valid")
    pairs = []
    for length in range(min(depth, dimension(w) - 1) + 1):
        if first_occurrence(w, length) > coloring.N:
            break
        for u in var_words(coloring.k, length, dim=coloring.n, min_len=length):
            img = substitute(w, u, omega=True)
            _need(coloring.get(img) == color, "pullback color breaks at {}", u)
            pairs.append((u, img))
    return pairs


def _verify_cdrt(instance: dict, witness: dict):
    coloring = coloring_from_json(instance["coloring"])
    depth = _int(instance["depth"])
    _only(instance, "cdrt-instance", "coloring", "depth")
    w_hat = word_from_json(witness["w_hat"])
    color = _int(witness["color"])
    pairs = check_cdrt(coloring, reread(w_hat, coloring.k), color, depth)
    _need(pairs, "nothing verifiable within the horizon")
    return len(pairs), *_cdrt_witness(w_hat, coloring.k, color, pairs)


def _embedding_witness(images) -> tuple[dict, int]:
    """The images, and the vertex pairs checked, or 1, the image count
    check, when there is none: the verifier's count as well."""
    n = len(images)
    return {"words": _json(images)}, n * (n - 1) // 2 or 1


def embedding_certificate_doc(g: GraphSpec, images, mode: str, horizon) -> dict:
    instance = {"type": "embedding-instance", "graph": graph_to_json(g), "mode": mode, "horizon": horizon}
    return wrap("embedding", instance, *_embedding_witness(images))


def check_embedding(g: GraphSpec, images, horizon) -> None:
    """``images`` are distinct words over {0, x0}, one per vertex of the
    triangle-free graph ``g``, adjacent exactly where g is; with a
    ``horizon`` (greedy mode, None for phi) each is a vertex, no longer
    than the horizon and longer than the one before."""
    from .henson import edge

    _need(len(images) == g.n, "image count mismatch")
    _need(all(w.k == 1 for w in images), "image not over the alphabet {0}")
    _need(len(set(images)) == g.n, "images are not distinct")
    _need(g.is_triangle_free(), "instance graph has a triangle")
    for i, j in combinations(range(g.n), 2):
        if edge(images[i], images[j]) != g.adj(i, j):
            raise CheckFailed(f"edge mismatch at ({i},{j})")
    if horizon is not None:
        for i, w in enumerate(images):
            _need(w.has_variables(), "greedy image outside the vertex set")
            _need(len(w) <= horizon, "greedy image past the horizon")
            if i:
                _need(len(w) > len(images[i - 1]), "image lengths not increasing")


def _verify_embedding(instance: dict, witness: dict):
    g = graph_from_json(instance["graph"])
    mode = instance["mode"]
    _need(mode in ("greedy", "phi"), f"unknown embedding mode {mode!r}")
    horizon = _int(instance["horizon"])
    _only(instance, "embedding-instance", "graph", "mode", "horizon")
    images = [word_from_json(d) for d in witness["words"]]
    check_embedding(g, images, horizon if mode == "greedy" else None)
    witness, pairs = _embedding_witness(images)
    # ``henson embed --phi`` writes which images are vertices beside its certificate
    report = {"in_vertex_set": [w.has_variables() for w in images]} if mode == "phi" else {}
    return pairs, witness, pairs, report


def _envelope_witness(word: Word, var_count: int, assignments) -> tuple[dict, int]:
    """``assignments`` holds one (member, t) pair per distinct member, in
    ``Word.key`` order; their number m gives the bound 2^m + m - 1."""
    m = len(assignments)
    witness = {
        "word": _json(word),
        "variable_count": var_count,
        "bound": 2**m + m - 1,
        "minimal_by_search_order": True,
        "assignments": _json(assignments),
    }
    return witness, m


def envelope_certificate_doc(members, env) -> dict:
    instance = {"type": "envelope-instance", "members": [word_to_json(s) for s in members]}
    return wrap("envelope", instance, *_envelope_witness(env.word, env.variable_count, env.assignments))


def check_envelope(members, word: Word, var_count: int, assignments) -> int:
    """``word`` is a variable word of ``var_count`` variables, at most
    2^m + m - 1 for the m distinct ``members``, and each member is word[t]
    for its t in ``assignments``, (member, t) pairs.  Returns the number
    of members."""
    m = len(set(members))
    _need(dimension(word) == var_count, "variable count mismatch")
    _need(is_var_word(word, var_count), "envelope is not a valid variable word")
    _need(var_count <= 2**m + m - 1, "variable count above the bound")
    assigns = {s.symbols: t for s, t in assignments}
    for s in members:
        _need(s.symbols in assigns, "no assignment for {}", s)
        _need(substitute(word, assigns[s.symbols]) == s, "assignment fails for {}", s)
    return len(members)


def _verify_envelope(instance: dict, witness: dict):
    members = [word_from_json(d) for d in instance["members"]]
    _only(instance, "envelope-instance", "members")
    env = word_from_json(witness["word"])
    var_count = _int(witness["variable_count"])
    assignments = _word_pairs(witness["assignments"])
    count = check_envelope(members, env, var_count, assignments)
    assigns = {s.symbols: t for s, t in assignments}
    distinct = sorted(set(members), key=Word.key)  # ``minimal_envelope``'s order
    return count, *_envelope_witness(env, var_count, [(s, assigns[s.symbols]) for s in distinct])


_VERIFIERS = {
    "line-letter": _verify_line_letter,
    "tree": _verify_tree,
    "split": _verify_split,
    "brown": _verify_brown,
    "builder-trace": _verify_builder,
    "prehomog": _verify_prehomog,
    "csl": _verify_csl,
    "cdrt": _verify_cdrt,
    "embedding": _verify_embedding,
    "envelope": _verify_envelope,
}

_ABSENT = object()


def _check_canonical(got, want) -> None:
    """Raise ``_NonCanonical`` at the first value, in canonical order, whose
    canonical JSON differs between ``got`` and ``want``, two dicts or two
    lists of one length.  A value that is ``want``'s own is not encoded."""
    if isinstance(got, dict):
        pairs = [(key, got.get(key, _ABSENT), want.get(key, _ABSENT)) for key in sorted(got.keys() | want.keys())]
    else:
        pairs = zip(range(len(got)), got, want)
    for key, a, b in pairs:
        if a is not b and (a is _ABSENT or b is _ABSENT or canonical_json(a) != canonical_json(b)):
            if type(a) is type(b) is dict or type(a) is type(b) is list and len(a) == len(b):
                _check_canonical(a, b)
            raise _NonCanonical(got, key)


def _step(key) -> str:
    """One step of a JSON pointer (RFC 6901)."""
    return "/" + str(key).replace("~", "~0").replace("/", "~1")


def _pointer(doc: dict, node) -> str:
    """The JSON pointer of ``node``, a dict or list of ``doc``, found by identity."""
    stack = [("", doc)]
    while True:
        path, value = stack.pop()
        if value is node:
            return path
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            stack += ((path + _step(key), child) for key, child in items)


def verify_certificate(doc: dict) -> VerifyResult:
    if not isinstance(doc, dict):
        return VerifyResult(False, "?", "malformed certificate: not a JSON object")
    kind = doc.get("kind", "?")
    try:
        schema = doc.get("schema")
        _need(type(schema) is int and schema == SCHEMA, f"unsupported schema {schema}")
        _need(kind in _VERIFIERS, f"unknown kind {kind!r}")
        _need(
            digest(doc["instance"]) == doc["digest"],
            "instance digest mismatch",
        )
        count, witness, checked_count, *report = _VERIFIERS[kind](doc["instance"], doc["witness"])
        _need(count >= 1, "empty verification")
        rebuilt = wrap(kind, {}, witness, checked_count)
        rebuilt.update(instance=doc["instance"], digest=doc["digest"])  # pinned above, not written again
        # a report a command writes beside the certificate is rebuilt too, and compared when present
        rebuilt.update({key: value for part in report for key, value in part.items() if key in doc})
        _check_canonical(doc, rebuilt)
        return VerifyResult(True, kind, f"{count} checks")
    except _NonCanonical as exc:
        return VerifyResult(False, kind, f"non-canonical certificate: {_pointer(doc, exc.node)}{_step(exc.key)}")
    except CheckFailed as exc:
        return VerifyResult(False, kind, str(exc))
    except (KeyError, ValueError, TypeError, OverflowError, VarwordError) as exc:
        return VerifyResult(False, kind, f"malformed certificate: {exc}")
    except RecursionError:
        return VerifyResult(False, kind, "malformed certificate: nested too deeply")
