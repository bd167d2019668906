"""Bounded searches around the finitary line-with-letter theorem.

Every search walks its candidates lazily, in one thread, in
length-then-lex order, and returns the first witness, so output is
deterministic and the walk stops at the first hit.  A line-with-letter
hit is re-checked before it is returned with
``certificates.check_line_letter``, the check ``varword verify`` runs on
its certificate.

Provided here:

* ``search_line_with_letter``: a monochromatic line S plus a letter a
  with S(0) and S(1).a in the same color class.
* ``line_letter_from_dim2``: extract such a pair from a monochromatic
  dimension-2 tree through a connector word between its levels.
* ``d_super_s``: the residue family {sigma : S(1).sigma inside D}.
* ``step_lemma_search`` / ``iterate_builder``: the one-step lemma for
  piecewise syndetic families and the staged tree construction, one
  loop over the stages.  ``certificates.check_builder_stage``, the check
  ``varword verify`` runs on each builder stage, decides claims 1 and 2
  of the step's tree {S(0)} and of every stage, exactly at the horizon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .certificates import check_builder_stage, check_line_letter
from .colorings import Coloring
from .errors import (
    IndexOutOfRange,
    NoConnector,
    NotFoundWithinHorizon,
    InvalidWord,
)
from .trees import OVWTree, level, tree_from_generator
from .words import (
    Word,
    cut,
    decompose,
    extend,
    rank,
    var_words,
)

# ``largeness`` is imported by the functions that use it, so a line
# search does not compile it
if TYPE_CHECKING:
    from .largeness import FiniteFamily, PwCertification, PwSyndeticDecomposition

__all__ = [
    "LineLetterCertificate",
    "search_line_with_letter",
    "verify_line_letter",
    "line_letter_from_dim2",
    "d_super_s",
    "StepResult",
    "step_lemma_search",
    "BuilderStage",
    "BuilderTrace",
    "iterate_builder",
]


# ---------------------------------------------------------------------------
# line with letter


class LineLetterCertificate(NamedTuple):
    line: OVWTree
    letter: int
    color: int
    checked: tuple[Word, ...]  # S(0) together with S(1).a


def search_line_with_letter(coloring: Coloring, workers: int = 1) -> LineLetterCertificate:
    """Lex-least monochromatic line-and-letter pair within the horizon.

    The line size plus one must fit under the coloring horizon so that
    the extended level S(1).a stays colorable.  Raises
    NotFoundWithinHorizon after exhausting all generators.

    Candidates are walked lazily and their colors read by rank
    (``Coloring.line_letter``); only the hit's levels become words.
    """
    # ``workers`` is ignored (one thread); kept only for perfbench's workers probe
    if coloring.n != 0:
        raise InvalidWord("line search expects a coloring of plain words")
    cap = coloring.N - 1
    for g in var_words(coloring.k, cap, dim=1, ordered=True, min_len=1):
        hit = coloring.line_letter(g.symbols)
        if hit is not None:
            return _line_hit(coloring, g, *hit)
    raise NotFoundWithinHorizon(
        f"no line-with-letter certificate with generator length <= {cap}"
    )


def _line_hit(coloring: Coloring, g: Word, a: int, color: int) -> LineLetterCertificate:
    checked = check_line_letter(coloring, g, a, color)  # S(0), then S(1).a in lex order
    return LineLetterCertificate(tree_from_generator(g), a, color, checked)


def verify_line_letter(cert: LineLetterCertificate, coloring: Coloring) -> None:
    """Re-check a certificate with ``certificates.check_line_letter``, which
    also gave ``_line_hit`` its ``checked`` words; raises ``CheckFailed``,
    an ``InvalidWord``, when it does not hold."""
    check_line_letter(coloring, cert.line.generator, cert.letter, cert.color)


def line_letter_from_dim2(
    tree: OVWTree, coloring: Coloring
) -> tuple[LineLetterCertificate, Word]:
    """Turn a monochromatic dimension-2 tree into a line-with-letter pair.

    Finds the lex-least nonempty connector sigma with T(1).sigma inside
    T(2); the line is T(0) | T(1).sigma* where sigma* drops the last
    letter, and that letter is returned with it.  A connector is the
    tail past T(1)'s length of a word of T(2), so only those tails are
    tried.
    """
    if tree.dimension != 2:
        raise InvalidWord("need a dimension-2 tree")
    colors = {coloring(e) for e in tree.elements}
    if len(colors) != 1:
        raise InvalidWord("tree is not monochromatic")
    (color,) = colors
    l1 = tree.level_lengths[1]
    lvl1, lvl2 = level(tree, 1), set(level(tree, 2))
    for sigma in sorted({w.symbols[l1:] for w in lvl2}):
        if all(extend(w, sigma) in lvl2 for w in lvl1):
            break
    else:
        raise NoConnector("no nonempty connector from T(1) into T(2)")
    line_gen = extend(cut(tree.generator, l1), sigma[:-1])
    return _line_hit(coloring, line_gen, sigma[-1], color), extend(cut(tree.generator, 0), sigma)


# ---------------------------------------------------------------------------
# residues and the one-step lemma


def d_super_s(family: FiniteFamily, line: OVWTree) -> FiniteFamily:
    """{sigma : S(1).sigma inside family}, at horizon N - |S|."""
    if line.dimension != 1:
        raise InvalidWord("residue needs a line")
    return family.line_residue(line.generator)


# The one-step walk's longest generator.  A step that finds nothing has
# walked every one-variable generator up to this length: 966 of them at
# k = 2 and 4,368 at k = 3, and each further length about triples
# (k = 2) or quadruples (k = 3) that walk.
_MAX_GEN_LEN = 6


class StepResult(NamedTuple):
    line: OVWTree
    block: Word  # left 1-variable word w with S(1) = S(0).w[A]
    residue: PwCertification  # certified piecewise syndetic Q
    s0_in_part: bool
    inclusion_checked: int


def step_lemma_search(dec: PwSyndeticDecomposition, m_bound: int = 2) -> StepResult:
    """Smallest line S with S(0) inside P and S(1).Q inside P, Q certified.

    Q is the full residue of P past S, re-certified as piecewise
    syndetic at the reduced horizon.  The hit's S(0) and S(1).Q, claims
    1 and 2 of the tree {S(0)} with block w and residue Q, are checked by
    ``certificates.check_builder_stage``.  Candidate lines are enumerated
    only up to the first hit, in (length, lex) order.  S(0) is the
    generator up to its variable, so the walk decides S(0) in P where it
    places the variable, once per distinct S(0), and never builds a
    generator of a refused S(0).  A raw residue that ``pws_certify``
    refused is not certified again; both memos die with the search.

    The residue of g lies at horizon N - |g|, its reach at N - |g| - ell.
    ``is_thick`` finds no anchor for ``m_bound`` below horizon ``m_bound``,
    nor has ``pws_certify`` a syndetic range below horizon ell, so no
    generator longer than N - ell - max(m_bound, ell) can certify: the
    walk stops there.  A negative ell or m_bound raises ``IndexOutOfRange``.
    """
    from .largeness import pws_certify

    if dec.ell < 0:
        raise IndexOutOfRange(f"ell must be >= 0, got {dec.ell}")
    if m_bound < 0:
        raise IndexOutOfRange(f"m_bound must be >= 0, got {m_bound}")
    p = dec.part
    k = dec.k
    cap = min(_MAX_GEN_LEN, dec.N - 1)
    longest = min(cap, dec.N - dec.ell - max(m_bound, dec.ell))  # the longest generator that can certify
    roots: dict[tuple[int, ...], bool] = {}  # S(0) in P, by the symbols of S(0)
    refused: set[tuple[int, int]] = set()  # (N, mask) of the residues pws_certify refused

    def root_inside(syms, i):
        if syms[i] != k or k in syms[:i]:
            return True  # a letter, or the variable again
        root = tuple(syms[:i])
        inside = roots.get(root)
        if inside is None:  # root holds letters only, and fewer than N of them
            inside = roots[root] = bool(p.mask >> rank(k, p.N, 0, root) & 1)
        return inside

    def attempt(g):
        q_raw = p.line_residue(g)  # d_super_s(p, line)
        key = (q_raw.N, q_raw.mask)
        if not q_raw.mask or key in refused:
            return None
        cert = pws_certify(q_raw, dec.ell, m_bound)
        if cert is None:
            refused.add(key)
            return None
        root, (block,) = decompose(g)
        _, c1, c2, _ = check_builder_stage(p, root, block, cert.decomposition.part)
        return StepResult(tree_from_generator(g), block, cert, True, c1 + c2)

    cands = var_words(k, longest, dim=1, ordered=True, min_len=1, keep=root_inside)
    hit = next((r for r in map(attempt, cands) if r is not None), None)
    if hit is None:
        raise NotFoundWithinHorizon(
            f"no one-step line with generator length <= {cap}"
        )
    return hit


# ---------------------------------------------------------------------------
# staged builder


class BuilderStage(NamedTuple):
    tree: OVWTree
    block: Word  # w_s
    residue: PwCertification  # P_s
    claim1_ok: bool
    claim1_checked: int
    claim1_skipped: int
    claim2_ok: bool
    claim2_checked: int
    claim2_skipped: int


class BuilderTrace(NamedTuple):
    part: FiniteFamily  # the ambient P all claims refer to
    stages: tuple[BuilderStage, ...]

    @property
    def tree(self) -> OVWTree:
        return self.stages[-1].tree


def _stage(tree: OVWTree, step: StepResult, p: FiniteFamily) -> BuilderStage:
    """Stage record with both claims checked against p by
    ``certificates.check_builder_stage``, which raises ``CheckFailed``
    when one fails; the words past p's horizon are counted on the tree."""
    residue = step.residue.decomposition.part
    built, c1, c2, s2 = check_builder_stage(p, tree.generator, step.block, residue)
    if built <= tree.dimension:  # the top level is past the horizon: every glued word is skipped
        s2 = len(level(tree, tree.dimension)) * p.k * len(residue)
    return BuilderStage(tree, step.block, step.residue, True, c1, len(tree.elements) - c1, True, c2, s2)


def iterate_builder(dec: PwSyndeticDecomposition, s_max: int, m_bound: int = 2) -> BuilderTrace:
    """Grow a tree of dimension s_max inside P by iterating the one-step lemma.

    Stage s steps from the previous stage's residue (the instance at
    s = 0) and extends the generator by the previous block, renamed to
    x_{s-1}, then the step's S(0).  Both invariants are then re-verified
    exactly at the horizon: the tree stays inside P, and top-level words
    extended by the current block and the certified residue stay inside
    P; a failed claim raises ``CheckFailed``.  A stage whose step finds
    no line propagates NotFoundWithinHorizon tagged with the stage index.
    A negative s_max raises ``IndexOutOfRange``.
    """
    if s_max < 0:
        raise IndexOutOfRange(f"steps must be >= 0, got {s_max}")
    p, k = dec.part, dec.k
    stages: list[BuilderStage] = []
    for s in range(s_max + 1):
        try:
            step = step_lemma_search(dec, m_bound)
        except NotFoundWithinHorizon as exc:
            raise NotFoundWithinHorizon(f"stage {s}: {exc}") from exc
        gen = step.line.elements[0]  # S(0)
        if stages:  # after the previous generator and block, the block's x_0 renamed to x_{s-1}
            last = stages[-1]
            renamed = tuple(k + s - 1 if sym == k else sym for sym in last.block.symbols)
            gen = extend(last.tree.generator, renamed + gen.symbols)
        stages.append(_stage(tree_from_generator(gen), step, p))
        dec = step.residue.decomposition
    return BuilderTrace(p, tuple(stages))
