"""Certificate JSON schema (version 1): the builders, the checkers and the search-free verifier.

A certificate embeds its instance, a sha256 digest of the instance's
canonical JSON, and a kind-specific witness.  ``verify_certificate``
re-checks the witness against the embedded instance using definitions
only; it never calls any search routine, so a certificate accepted
here stands on its own.  Serialization is canonical (sorted keys, no
whitespace), which is what makes byte-identical reruns a meaningful
contract.

This is the only module that knows the format.  Each kind has one
builder, ``<kind>_certificate_doc``, which only serializes the objects
its search already computed, and one check, which takes objects: the
search runs it, and ``_verify_<kind>`` parses the document and runs the
same function.  A failed check raises ``CheckFailed``.  Per kind:

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
# value serializers


def word_to_json(w: Word) -> dict:
    return {"k": w.k, "symbols": list(w.symbols), "text": format_word(w)}


def _int(x) -> int:
    """An integer field of a document; ``int(...)`` would also take "1",
    true and 1.0, giving one certificate many accepted byte forms."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


def word_from_json(doc: dict) -> Word:
    w = Word(_int(doc["k"]), tuple(_int(s) for s in doc["symbols"]))
    if format_word(w) != doc["text"]:
        raise InvalidWord("word text and symbols disagree")
    return w


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
    from .colorings import Coloring

    k, n_horizon, dim = _int(doc["k"]), _int(doc["N"]), _int(doc["n"])
    Coloring.check_header(k, n_horizon, dim)
    rows = doc["table"]
    coloring = None  # rows [text, color] in rank order are compared with the domain's, not parsed
    try:
        texts, colors = [t for t, _ in rows], [c for _, c in rows]
    except (TypeError, ValueError):  # rows of another form
        pass
    else:
        coloring = Coloring.from_entries(k, n_horizon, dim, doc.get("ell"), texts, colors)
    if coloring is None:
        table = {parse_word(t, k): _int(c) for t, c in rows}
        coloring = Coloring(k, n_horizon, dim, _int(doc["ell"]), table)
    return coloring


def family_to_json(f: FiniteFamily) -> dict:
    return {"type": "family", "k": f.k, "N": f.N, "words": f.texts()}


def family_from_json(doc: dict) -> FiniteFamily:
    from .largeness import FiniteFamily, check_family_size

    k = _int(doc["k"])
    n = _int(doc["N"])
    check_family_size(k, n)
    texts = doc["words"]
    if not isinstance(texts, list):
        raise InvalidWord("family words are not a list")
    return FiniteFamily.from_texts(k, n, texts)


def decomposition_to_json(dec: PwSyndeticDecomposition) -> dict:
    return {
        "type": "pw-decomposition",
        "ell": dec.ell,
        "syndetic": family_to_json(dec.syndetic),
        "thick": family_to_json(dec.thick),
    }


def decomposition_from_json(doc: dict) -> PwSyndeticDecomposition:
    from .largeness import PwSyndeticDecomposition

    return PwSyndeticDecomposition(
        family_from_json(doc["syndetic"]),
        family_from_json(doc["thick"]),
        _int(doc["ell"]),
    )


def graph_to_json(g: GraphSpec) -> dict:
    return {"type": "graph", "n": g.n, "rows": g.rows()}


def graph_from_json(doc: dict) -> GraphSpec:
    """The graph under the rules of the file form (``GraphSpec.from_rows``)."""
    from .henson import GraphSpec

    rows = doc["rows"]
    if not isinstance(rows, list):
        raise InvalidWord("graph rows are not a list")
    return GraphSpec.from_rows(_int(doc["n"]), rows, "<certificate graph>")


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
# the ten kinds, each builder beside its verifier


def line_letter_certificate_doc(coloring: Coloring, cert) -> dict:
    witness = {
        "generator": word_to_json(cert.line.generator),
        "letter": cert.letter,
        "color": cert.color,
        "checked": [word_to_json(w) for w in cert.checked],
    }
    return wrap("line-letter", coloring_to_json(coloring), witness, len(cert.checked))


def check_line_letter(coloring: Coloring, g: Word, letter: int, color: int, checked) -> set[Word]:
    """The words S(0) and S(1).letter of the line S generated by ``g`` all
    have ``color``, and ``checked`` holds exactly these words; returns them."""
    from .trees import tree_levels

    levels = tree_levels(g, len(g))  # NotOrdered for a bad generator; builds no level yet
    _need(dimension(g) == 1, "generator is not one-dimensional")
    _need(len(g) + 1 <= coloring.N, "line does not fit the horizon")
    _need(0 <= letter < coloring.k, "letter outside alphabet")
    expected = set(next(levels))  # S(0); then S(1).letter, by k more substitutions
    expected.update(extend(w, (letter,)) for w in next(levels))
    _need(set(checked) == expected, "checked set mismatch")
    for w in expected:
        _need(coloring(w) == color, "{} has the wrong color", w)
    return expected


def _verify_line_letter(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance)
    g = word_from_json(witness["generator"])
    letter, color = _int(witness["letter"]), _int(witness["color"])
    checked = [word_from_json(d) for d in witness["checked"]]
    return len(check_line_letter(coloring, g, letter, color, checked))


def tree_certificate_doc(tree) -> dict:
    """The tree's element set, with its generator as the witness."""
    instance = {"type": "elements", "elements": [word_to_json(e) for e in tree.elements]}
    witness = {
        "generator": word_to_json(tree.generator),
        "dimension": tree.dimension,
        "elements": [word_to_json(e) for e in tree.elements],
    }
    return wrap("tree", instance, witness, len(tree.elements))


def _verify_tree(instance: dict, witness: dict) -> int:
    from .trees import tree_from_generator

    elems = {word_from_json(d) for d in instance["elements"]}
    g = word_from_json(witness["generator"])
    d = dimension(g)
    # the tree has k^0 + ... + k^d elements: compare before building it; the
    # count over min(k, 2) letters is no larger and bounds d before k^(d + 1)
    _need(_geometric(min(g.k, 2), 0, d) <= len(elems), "element set mismatch")
    _need(_geometric(g.k, 0, d) == len(elems), "element set mismatch")
    tree = tree_from_generator(g)
    _need(tree.element_set() == frozenset(elems), "element set mismatch")
    _need(_int(witness["dimension"]) == tree.dimension, "dimension mismatch")
    _need(
        canonical_json(witness["elements"]) == canonical_json(instance["elements"]),
        "witness elements differ from the instance's",
    )
    return len(elems)


def _check_syndetic_witness(fam: FiniteFamily, ell: int, translators) -> int:
    seen = set()
    for sig_doc, tau_doc in translators:
        sigma = word_from_json(sig_doc)
        tau = word_from_json(tau_doc)
        _need(len(tau) <= ell, "translator too long")
        _need(tau.concat(sigma) in fam, "translator misses the family")
        seen.add(sigma.symbols)
    want = {w.symbols for w in letter_words(fam.k, fam.N - ell)}
    _need(seen == want, "translator map does not cover the quantifier range")
    return len(seen)


def _check_thick_witness(fam: FiniteFamily, anchors) -> int:
    count = 0
    for ell, sig_doc in anchors:
        sigma = word_from_json(sig_doc)
        for tau in letter_words(fam.k, _int(ell)):
            _need(tau.concat(sigma) in fam, "anchor block leaks out of the family")
            count += 1
    return count


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
        pairs = [[word_to_json(s), word_to_json(t)] for s, t in translators]
        return wrap("split", instance, {"side": "B", "translators": pairs}, 2 + len(pairs))
    anchors = res.thick_evidence.witness.anchors
    witness = {
        "side": "C",
        "counterexample": word_to_json(res.syndetic_check.counterexample),
        "thick_anchors": [[ell, word_to_json(s)] for ell, s in anchors],
    }
    return wrap("split", instance, witness, 2 + len(anchors))


def _verify_split(instance: dict, witness: dict) -> int:
    from .largeness import split_sides

    dec = decomposition_from_json(instance["decomposition"])
    _need(0 <= dec.ell <= dec.N, "ell outside the horizon")  # it bounds the tau walks
    b = family_from_json(instance["b"])
    c = family_from_json(instance["c"])
    s_tilde, t_tilde = split_sides(dec, b, c)  # NotAPartition unless B, C partition P
    side = witness["side"]
    count = 2
    if side == "B":
        count += _check_syndetic_witness(s_tilde, dec.ell, witness["translators"])
    else:
        sigma = word_from_json(witness["counterexample"])
        for tau in letter_words(dec.k, dec.ell):
            _need(tau.concat(sigma) not in s_tilde, "counterexample refuted")
            count += 1
        count += _check_thick_witness(t_tilde, witness["thick_anchors"])
    return count


def brown_certificate_doc(dec: PwSyndeticDecomposition, parts, sel, translators) -> dict:
    """The selection ``sel = brown_select(dec, parts)``, with the syndeticity
    translators of its new syndetic side."""
    instance = {
        "type": "brown-instance",
        "decomposition": decomposition_to_json(dec),
        "parts": [family_to_json(p) for p in parts],
    }
    witness = {
        "index": sel.index,
        "subset": list(sel.subset),
        "translators": [[word_to_json(s), word_to_json(t)] for s, t in translators],
        "removal_counterexample": word_to_json(sel.removal_check.counterexample),
        "thick_anchors": [[ell, word_to_json(s)] for ell, s in sel.thick_evidence.witness.anchors],
    }
    return wrap("brown", instance, witness, len(translators) + 1)


def _verify_brown(instance: dict, witness: dict) -> int:
    from .largeness import brown_side, check_partition

    dec = decomposition_from_json(instance["decomposition"])
    _need(0 <= dec.ell <= dec.N, "ell outside the horizon")  # it bounds the tau walks
    parts = [family_from_json(d) for d in instance["parts"]]
    check_partition(dec.part, parts)
    idx = _int(witness["index"])
    subset = [_int(i) for i in witness["subset"]]
    _need(all(0 <= j < len(parts) for j in subset), "subset index outside the parts")
    _need(len(set(subset)) == len(subset), "subset repeats a part")
    _need(idx in subset, "selected index outside subset")
    s_prime = brown_side(dec, parts, subset)
    count = _check_syndetic_witness(s_prime, dec.ell, witness["translators"])
    rest = brown_side(dec, parts, [j for j in subset if j != idx])
    sigma = word_from_json(witness["removal_counterexample"])
    for tau in letter_words(dec.k, dec.ell):
        _need(tau.concat(sigma) not in rest, "removal counterexample refuted")
        count += 1
    # T' = complement(rest), and S' & T' is parts[idx]
    count += _check_thick_witness(rest.complement(), witness["thick_anchors"])
    return count


def builder_certificate_doc(dec: PwSyndeticDecomposition, trace) -> dict:
    instance = {"type": "builder-instance", "decomposition": decomposition_to_json(dec)}
    stages = [
        {
            "generator": word_to_json(st.tree.generator),
            "block": word_to_json(st.block),
            "residue": decomposition_to_json(st.residue.decomposition),
            "claim1": {"ok": st.claim1_ok, "checked": st.claim1_checked, "skipped": st.claim1_skipped},
            "claim2": {"ok": st.claim2_ok, "checked": st.claim2_checked, "skipped": st.claim2_skipped},
        }
        for st in trace.stages
    ]
    checked = sum(s.claim1_checked + s.claim2_checked for s in trace.stages)
    return wrap("builder-trace", instance, {"stages": stages}, checked)


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


def _verify_builder(instance: dict, witness: dict) -> int:
    """Every stage's claims by ``check_builder_stage``, against the instance's P.

    Each stage's claim records must be what the check finds; the words
    past the horizon are counted from the sizes alone (level j has k^j
    words), and a count with more bits than its record is refused before
    it is built.
    """
    dec = decomposition_from_json(instance["decomposition"])
    p = dec.part
    count = 0
    for i, stage in enumerate(witness["stages"]):
        g = word_from_json(stage["generator"])
        _need(g.k == p.k, "generator alphabet differs from the instance's")
        block = word_from_json(stage["block"])
        res_dec = decomposition_from_json(stage["residue"])
        _need(res_dec.ell == dec.ell, f"stage {i}: residue ell differs from the instance's")
        residue = res_dec.part
        built, c1, c2, s2 = check_builder_stage(p, g, block, residue)
        dim = dimension(g)
        for n, c in ((1, c1), (2, c2)):
            record = stage[f"claim{n}"]
            got = (record["ok"] is True, _int(record["checked"]), _int(record["skipped"]))
            if n == 2:  # past the horizon, k^(dim + 1) glued words per residue word
                s = s2 if len(g) <= p.N else p.k ** (dim + 1) * residue.mask.bit_count()
            elif built > dim or dim * (p.k.bit_length() - 1) < got[2].bit_length():
                s = _geometric(p.k, built, dim)  # the levels not built
            else:  # they hold k^dim or more words, more than the record holds
                s = None
            _need(got == (True, c, s) and len(record) == 3, f"stage {i}: claim {n} record mismatch")
        count += c1 + c2
    return count


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


def prehomog_certificate_doc(coloring: Coloring, w: Word, out, verify_tail: int) -> dict:
    instance = {
        "type": "prehomog-instance",
        "coloring": coloring_to_json(coloring),
        "w": word_to_json(w),
        "stem": word_to_json(out.stem),
        "verify_tail": verify_tail,
    }
    witness = {"w_hat": word_to_json(out.w_hat), "color": out.color, "z_word": word_to_json(out.z_word)}
    return wrap("prehomog", instance, witness, len(out.checked))


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


def _verify_prehomog(instance: dict, witness: dict) -> int:
    pairs = check_prehomog(
        coloring_from_json(instance["coloring"]),
        word_from_json(instance["w"]),
        word_from_json(instance["stem"]),
        _int(instance["verify_tail"]),
        word_from_json(witness["w_hat"]),
        word_from_json(witness["z_word"]),
        _int(witness["color"]),
    )
    _need(pairs, "nothing verifiable within the horizon")
    return len(pairs)


def csl_certificate_doc(coloring: Coloring, cert) -> dict:
    witness = {
        "word": word_to_json(cert.word),
        "color": cert.color,
        "depth": cert.depth,
        "checked": [[word_to_json(u), word_to_json(img)] for u, img in cert.checked],
    }
    return wrap("csl", coloring_to_json(coloring), witness, len(cert.checked))


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


def _verify_csl(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance)
    w = word_from_json(witness["word"])
    color, depth = _int(witness["color"]), _int(witness["depth"])
    checked = [(word_from_json(u), word_from_json(img)) for u, img in witness["checked"]]
    pairs = check_csl(coloring, w, color, depth)
    _need(checked == pairs, "checked pairs are not the pattern walk")
    return len(pairs)


def cdrt_certificate_doc(coloring: Coloring, pb, depth: int, w_hat: Word) -> dict:
    instance = {"type": "cdrt-instance", "coloring": coloring_to_json(coloring), "depth": depth}
    witness = {"w_hat": word_to_json(w_hat), "word": word_to_json(pb.word), "color": pb.color}
    return wrap("cdrt", instance, witness, len(pb.checked))


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


def _verify_cdrt(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance["coloring"])
    depth = _int(instance["depth"])
    w_hat = word_from_json(witness["w_hat"])
    w = word_from_json(witness["word"])
    color = _int(witness["color"])
    _need(w.symbols == w_hat.symbols and w.k == coloring.k, "pullback mismatch")
    pairs = check_cdrt(coloring, w, color, depth)
    _need(pairs, "nothing verifiable within the horizon")
    return len(pairs)


def embedding_certificate_doc(g: GraphSpec, images, mode: str, horizon) -> dict:
    instance = {"type": "embedding-instance", "graph": graph_to_json(g), "mode": mode, "horizon": horizon}
    witness = {"words": [word_to_json(w) for w in images]}
    return wrap("embedding", instance, witness, g.n * (g.n - 1) // 2 or 1)


def check_embedding(g: GraphSpec, images, horizon) -> int:
    """``images`` are distinct words over {0, x0}, one per vertex of the
    triangle-free graph ``g``, adjacent exactly where g is; with a
    ``horizon`` (greedy mode, None for phi) each is a vertex, no longer
    than the horizon and longer than the one before.  Returns the number
    of vertex pairs checked, or 1, the image count, when there is none:
    the builder's ``checked_count``."""
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
    return g.n * (g.n - 1) // 2 or 1


def _verify_embedding(instance: dict, witness: dict) -> int:
    g = graph_from_json(instance["graph"])
    mode = instance["mode"]
    _need(mode in ("greedy", "phi"), f"unknown embedding mode {mode!r}")
    horizon = _int(instance["horizon"])
    images = [word_from_json(d) for d in witness["words"]]
    return check_embedding(g, images, horizon if mode == "greedy" else None)


def envelope_certificate_doc(members, env) -> dict:
    instance = {"type": "envelope-instance", "members": [word_to_json(s) for s in members]}
    witness = {
        "word": word_to_json(env.word),
        "variable_count": env.variable_count,
        "bound": env.bound,
        "minimal_by_search_order": True,
        "assignments": [[word_to_json(s), word_to_json(t)] for s, t in env.assignments],
    }
    return wrap("envelope", instance, witness, len(env.assignments))


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


def _verify_envelope(instance: dict, witness: dict) -> int:
    members = [word_from_json(d) for d in instance["members"]]
    env = word_from_json(witness["word"])
    var_count = _int(witness["variable_count"])
    m = len(set(members))  # ``minimal_envelope`` bounds by the distinct members
    _need(_int(witness["bound"]) == 2**m + m - 1, "bound mismatch")
    _need(witness["minimal_by_search_order"] is True, "envelope not marked minimal by search order")
    assignments = [(word_from_json(s), word_from_json(t)) for s, t in witness["assignments"]]
    return check_envelope(members, env, var_count, assignments)


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
        count = _VERIFIERS[kind](doc["instance"], doc["witness"])
        declared = _int(doc.get("checked_count", count))
        _need(count >= 1 and declared >= 1, "empty verification")
        return VerifyResult(True, kind, f"{count} checks")
    except CheckFailed as exc:
        return VerifyResult(False, kind, str(exc))
    except (KeyError, ValueError, TypeError, OverflowError, VarwordError) as exc:
        return VerifyResult(False, kind, f"malformed certificate: {exc}")
    except RecursionError:
        return VerifyResult(False, kind, "malformed certificate: nested too deeply")
