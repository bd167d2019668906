"""Certificate JSON schema (version 1) and the search-free verifier.

A certificate embeds its instance, a sha256 digest of the instance's
canonical JSON, and a kind-specific witness.  ``verify_certificate``
re-checks the witness against the embedded instance using definitions
only; it never calls any search routine, so a certificate accepted
here stands on its own.  Serialization is canonical (sorted keys, no
whitespace), which is what makes byte-identical reruns a meaningful
contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any

from . import __version__
from .colorings import Coloring
from .errors import InvalidWord, VarwordError
from .henson import GraphSpec, edge
from .largeness import FiniteFamily, PwSyndeticDecomposition, check_family_size
from .trees import level, tree_from_generator
from .words import (
    Word,
    compose,
    dimension,
    format_word,
    is_prefix_valid,
    is_var_word,
    letter_words,
    parse_word,
    substitute,
    var_words,
)

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
    "VerifyResult",
    "verify_certificate",
]

SCHEMA = 1
TOOL = f"varword {__version__}"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest(obj: Any) -> str:
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


def word_from_json(doc: dict) -> Word:
    w = Word(int(doc["k"]), tuple(int(s) for s in doc["symbols"]))
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
        "table": [
            [format_word(w), c.table[w]] for w in sorted(c.table, key=Word.key)
        ],
    }


def coloring_from_json(doc: dict) -> Coloring:
    k = int(doc["k"])
    table = {parse_word(t, k): int(c) for t, c in doc["table"]}
    return Coloring(k, int(doc["N"]), int(doc["n"]), int(doc["ell"]), table)


def family_to_json(f: FiniteFamily) -> dict:
    return {"type": "family", "k": f.k, "N": f.N, "words": f.texts()}


def family_from_json(doc: dict) -> FiniteFamily:
    k = int(doc["k"])
    n = int(doc["N"])
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
    return PwSyndeticDecomposition(
        family_from_json(doc["syndetic"]),
        family_from_json(doc["thick"]),
        int(doc["ell"]),
    )


def graph_to_json(g: GraphSpec) -> dict:
    return {
        "type": "graph",
        "n": g.n,
        "rows": [
            "".join("1" if g.adj(i, j) else "0" for j in range(g.n))
            for i in range(g.n)
        ],
    }


def graph_from_json(doc: dict) -> GraphSpec:
    pairs = []
    for i, row in enumerate(doc["rows"]):
        for j, c in enumerate(row):
            if c == "1":
                pairs.append((i, j))
    return GraphSpec.from_pairs(int(doc["n"]), pairs)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    kind: str
    detail: str = ""


class _Fail(VarwordError):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise _Fail(msg)


def _verify_line_letter(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance)
    g = word_from_json(witness["generator"])
    tree = tree_from_generator(g)
    _need(tree.dimension == 1, "generator is not one-dimensional")
    _need(len(g) + 1 <= coloring.N, "line does not fit the horizon")
    a = int(witness["letter"])
    _need(0 <= a < coloring.k, "letter outside alphabet")
    color = int(witness["color"])
    expected = {level(tree, 0)[0]}
    for w in level(tree, 1):
        expected.add(Word(w.k, w.symbols + (a,)))
    checked = {word_from_json(d) for d in witness["checked"]}
    _need(checked == expected, "checked set mismatch")
    for w in expected:
        _need(coloring(w) == color, f"{format_word(w)} has the wrong color")
    return len(expected)


def _verify_tree(instance: dict, witness: dict) -> int:
    elems = {word_from_json(d) for d in instance["elements"]}
    g = word_from_json(witness["generator"])
    tree = tree_from_generator(g)
    _need(tree.element_set() == frozenset(elems), "element set mismatch")
    _need(int(witness["dimension"]) == tree.dimension, "dimension mismatch")
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
        for tau in letter_words(fam.k, int(ell)):
            _need(tau.concat(sigma) in fam, "anchor block leaks out of the family")
            count += 1
    return count


def _verify_split(instance: dict, witness: dict) -> int:
    dec = decomposition_from_json(instance["decomposition"])
    b = family_from_json(instance["b"])
    c = family_from_json(instance["c"])
    p = dec.part
    _need((b | c).mask == p.mask and not (b & c).mask, "B, C do not partition P")
    s_tilde = b | (dec.syndetic - p)
    t_tilde = s_tilde.complement()
    _need((s_tilde & dec.thick).mask == b.mask, "identity B == S~ & T fails")
    _need((t_tilde & dec.syndetic).mask == c.mask, "identity C == T~ & S fails")
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


def _verify_brown(instance: dict, witness: dict) -> int:
    dec = decomposition_from_json(instance["decomposition"])
    parts = [family_from_json(d) for d in instance["parts"]]
    p = dec.part
    union = FiniteFamily.empty(dec.k, dec.N)
    for q in parts:
        _need(not (union & q).mask, "parts overlap")
        union = union | q
    _need(union.mask == p.mask, "parts do not cover P")
    idx = int(witness["index"])
    subset = [int(i) for i in witness["subset"]]
    _need(idx in subset, "selected index outside subset")
    base = dec.thick.complement()
    s_prime = base
    for j in subset:
        s_prime = s_prime | parts[j]
    count = _check_syndetic_witness(s_prime, dec.ell, witness["translators"])
    rest = base
    for j in subset:
        if j != idx:
            rest = rest | parts[j]
    sigma = word_from_json(witness["removal_counterexample"])
    for tau in letter_words(dec.k, dec.ell):
        _need(tau.concat(sigma) not in rest, "removal counterexample refuted")
        count += 1
    t_prime = dec.thick
    for j in subset:
        if j != idx:
            t_prime = t_prime - parts[j]
    _need((s_prime & t_prime).mask == parts[idx].mask, "part identity fails")
    count += _check_thick_witness(t_prime, witness["thick_anchors"])
    return count


def _verify_builder(instance: dict, witness: dict) -> int:
    dec = decomposition_from_json(instance["decomposition"])
    p = dec.part
    count = 0
    for stage in witness["stages"]:
        g = word_from_json(stage["generator"])
        tree = tree_from_generator(g)
        block = word_from_json(stage["block"])
        res = decomposition_from_json(stage["residue"])
        residue = res.part
        for e in tree.elements:
            if len(e) <= p.N:
                _need(e in p, f"claim 1 fails at {format_word(e)}")
                count += 1
        s = tree.dimension
        insts = [substitute(block, (a,)) for a in range(block.k)]
        sigmas = list(residue.words())
        for t in level(tree, s):
            for wa in insts:
                head = t.concat(wa)
                for sigma in sigmas:
                    glued = head.concat(sigma)
                    if len(glued) <= p.N:
                        _need(glued in p, f"claim 2 fails at {format_word(glued)}")
                        count += 1
    return count


def _stem_extension_words(stem: Word, k: int, n: int, tail_max: int):
    base = stem.symbols + (k + n,)
    symbols = list(range(k)) + [k + j for j in range(n + 1)]
    for tail_len in range(tail_max + 1):
        for tail in product(symbols, repeat=tail_len):
            yield Word(k, base + tail)


def _verify_prehomog(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance["coloring"])
    w = word_from_json(instance["w"])
    stem = word_from_json(instance["stem"])
    tail_max = int(instance["verify_tail"])
    w_hat = word_from_json(witness["w_hat"])
    z = word_from_json(witness["z_word"])
    color = int(witness["color"])
    n = coloring.n - 1
    m = len(stem) + 1
    _need(is_prefix_valid(z), "z is not prefix-valid")
    _need(
        z.symbols[:m] == tuple(z.k + j for j in range(m)),
        "z does not start with a pure variable prefix",
    )
    _need(compose(w, z) == w_hat, "w_hat is not compose(w, z)")
    count = 0
    for t in _stem_extension_words(stem, coloring.k, n, tail_max):
        try:
            img = substitute(w_hat, t, omega=True)
        except VarwordError:
            continue
        if img not in coloring:
            continue
        _need(coloring(img) == color, f"color breaks at t={format_word(t)}")
        count += 1
    _need(count > 0, "nothing verifiable within the horizon")
    return count


def _verify_csl(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance)
    w = word_from_json(witness["word"])
    color = int(witness["color"])
    depth = int(witness["depth"])
    _need(is_prefix_valid(w), "word is not prefix-valid")
    if coloring.n == 0:
        patterns = list(letter_words(coloring.k, depth))
    else:
        patterns = list(var_words(coloring.k, depth, dim=coloring.n))
    _need(bool(patterns), "empty pattern range")
    for u in patterns:
        img = substitute(w, u, omega=True)  # must be defined for every pattern
        _need(img in coloring, f"image of {format_word(u)} leaves the domain")
        _need(coloring(img) == color, f"color breaks at {format_word(u)}")
    return len(patterns)


def _verify_cdrt(instance: dict, witness: dict) -> int:
    coloring = coloring_from_json(instance["coloring"])
    depth = int(instance["depth"])
    w_hat = word_from_json(witness["w_hat"])
    w = word_from_json(witness["word"])
    color = int(witness["color"])
    _need(w.symbols == w_hat.symbols and w.k == coloring.k, "pullback mismatch")
    _need(is_prefix_valid(w), "pullback is not prefix-valid")
    count = 0
    if coloring.n == 0:
        patterns = letter_words(coloring.k, depth)
    else:
        patterns = var_words(coloring.k, depth, dim=coloring.n)
    for u in patterns:
        try:
            img = substitute(w, u, omega=True)
        except VarwordError:
            continue
        if img not in coloring:
            continue
        _need(coloring(img) == color, f"pullback color breaks at {format_word(u)}")
        count += 1
    _need(count > 0, "nothing verifiable within the horizon")
    return count


def _verify_embedding(instance: dict, witness: dict) -> int:
    g = graph_from_json(instance["graph"])
    mode = instance.get("mode", "greedy")
    images = [word_from_json(d) for d in witness["words"]]
    _need(len(images) == g.n, "image count mismatch")
    _need(g.is_triangle_free(), "instance graph has a triangle")
    count = 0
    for i, j in combinations(range(g.n), 2):
        _need(edge(images[i], images[j]) == g.adj(i, j), f"edge mismatch at ({i},{j})")
        count += 1
    if mode == "greedy":
        for i, w in enumerate(images):
            _need(w.has_variables(), "greedy image outside the vertex set")
            if i:
                _need(len(w) > len(images[i - 1]), "image lengths not increasing")
    return count


def _verify_envelope(instance: dict, witness: dict) -> int:
    members = [word_from_json(d) for d in instance["members"]]
    env = word_from_json(witness["word"])
    var_count = int(witness["variable_count"])
    bound = 2 ** len(members) + len(members) - 1
    _need(dimension(env) == var_count, "variable count mismatch")
    _need(is_var_word(env, var_count), "envelope is not a valid variable word")
    _need(var_count <= bound, "variable count above the bound")
    assigns = {
        word_from_json(s).symbols: word_from_json(t)
        for s, t in witness["assignments"]
    }
    for s in members:
        _need(s.symbols in assigns, f"no assignment for {format_word(s)}")
        t = assigns[s.symbols]
        _need(substitute(env, t) == s, f"assignment fails for {format_word(s)}")
    return len(members)


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
        _need(doc.get("schema") == SCHEMA, f"unsupported schema {doc.get('schema')}")
        _need(kind in _VERIFIERS, f"unknown kind {kind!r}")
        _need(
            digest(doc["instance"]) == doc["digest"],
            "instance digest mismatch",
        )
        count = _VERIFIERS[kind](doc["instance"], doc["witness"])
        declared = int(doc.get("checked_count", count))
        _need(count >= 1 and declared >= 1, "empty verification")
        return VerifyResult(True, kind, f"{count} checks")
    except _Fail as exc:
        return VerifyResult(False, kind, str(exc))
    except (KeyError, ValueError, TypeError, VarwordError) as exc:
        return VerifyResult(False, kind, f"malformed certificate: {exc}")
