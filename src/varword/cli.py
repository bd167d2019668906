"""Command-line surface.

Structured canonical JSON goes to stdout, a one-line human summary to
stderr.  Exit codes: 0 on success or certificate found, 2 when a
bounded search legitimately exhausts its horizon, 1 on input errors.
``--json-out FILE`` additionally writes the same bytes to a file.
Identical arguments produce byte-identical output regardless of
``--workers``.

Every process is a fresh interpreter, so each handler imports the
modules it runs and a command loads only its own code; ``--version``
loads no domain module at all.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    InputError,
    NoPartSelected,
    NotFoundWithinHorizon,
    VarwordError,
)

if TYPE_CHECKING:
    from .colorings import Coloring
    from .henson import GraphSpec
    from .largeness import FiniteFamily, PwSyndeticDecomposition
    from .words import Word

TOOL_VERSION = f"varword {__version__}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc), path, 0, 0) from None


def _family(path: str) -> FiniteFamily:
    from .largeness import FiniteFamily, check_family_size
    from .words import parse_word

    text = _read(path)
    lines = text.splitlines()
    if not lines:
        raise InputError("empty family file", path, 1, 1)
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("expected header 'k N'", path, 1, 1)
    try:
        k, n = int(head[0]), int(head[1])
    except ValueError:
        raise InputError("header 'k N' must be two integers", path, 1, 1) from None
    try:
        check_family_size(k, n)
    except VarwordError as exc:
        raise InputError(str(exc), path, 1, 1) from None
    words = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            words.append(parse_word(line.strip(), k))
        except VarwordError as exc:
            raise InputError(str(exc), path, i, 1) from None
    return FiniteFamily.from_words(k, n, words)


def _coloring(path: str) -> Coloring:
    from .colorings import Coloring

    return Coloring.parse(_read(path), path)


def _graph(path: str) -> GraphSpec:
    from .henson import GraphSpec

    return GraphSpec.parse(_read(path), path)


def _decomposition(args) -> PwSyndeticDecomposition:
    from .largeness import PwSyndeticDecomposition

    return PwSyndeticDecomposition(
        _family(args.syndetic), _family(args.thick), args.ell
    )


def _emit(doc: dict, args, summary: str) -> None:
    from .certificates import canonical_json

    payload = canonical_json(doc)
    sys.stdout.write(payload)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# word


def cmd_word_validate(args):
    from .certificates import word_to_json as W2J
    from .words import format_word, parse_word, validate

    w = parse_word(args.w, args.k)
    rep = validate(w, args.dim, args.ordered)
    doc = {
        "kind": "validity-report",
        "word": W2J(w),
        "n": args.dim,
        "ordered": args.ordered,
        "passed": rep.passed,
        "conditions": [
            {"name": c.name, "ok": c.ok, "position": c.position, "detail": c.detail}
            for c in rep.conditions
        ],
    }
    _emit(doc, args, f"{'pass' if rep.passed else 'FAIL'}: {format_word(w)}")
    return 0


def cmd_word_subst(args):
    from .certificates import word_to_json as W2J
    from .words import format_word, parse_word, substitute

    w = parse_word(args.w, args.k)
    u = parse_word(args.u, args.k)
    out = substitute(w, u, omega=args.omega)
    _emit(
        {"kind": "substitution", "w": W2J(w), "u": W2J(u), "result": W2J(out)},
        args,
        format_word(out),
    )
    return 0


def cmd_word_decompose(args):
    from .certificates import word_to_json as W2J
    from .words import decompose, format_word, parse_word

    w = parse_word(args.w, args.k)
    sigma, blocks = decompose(w)
    _emit(
        {
            "kind": "decomposition",
            "word": W2J(w),
            "sigma": W2J(sigma),
            "blocks": [W2J(b) for b in blocks],
        },
        args,
        f"sigma={format_word(sigma)} blocks={[format_word(b) for b in blocks]}",
    )
    return 0


# ---------------------------------------------------------------------------
# tree


def _tree_doc(tree):
    from .certificates import word_to_json as W2J
    from .trees import levels, size

    return {
        "generator": W2J(tree.generator),
        "dimension": tree.dimension,
        "elements": [W2J(e) for e in tree.elements],
        "levels": list(levels(tree)),
        "size": size(tree),
    }


def cmd_tree_build(args):
    from .certificates import word_to_json as W2J, wrap
    from .trees import tree_from_generator
    from .words import parse_word

    tree = tree_from_generator(parse_word(args.gen, args.k))
    instance = {"type": "elements", "elements": [W2J(e) for e in tree.elements]}
    doc = wrap(
        "tree",
        instance,
        {"generator": W2J(tree.generator), "dimension": tree.dimension,
         "elements": [W2J(e) for e in tree.elements]},
        len(tree.elements),
    )
    doc["tree"] = _tree_doc(tree)
    _emit(doc, args, f"{len(tree.elements)} elements, dimension {tree.dimension}")
    return 0


def cmd_tree_invert(args):
    from .certificates import word_to_json as W2J, wrap
    from .trees import generator_from_tree, tree_from_generator
    from .words import format_word, parse_word

    k = args.k
    words = [parse_word(t.strip(), k) for t in args.elements.split(",")]
    gen = generator_from_tree(words)
    tree = tree_from_generator(gen)
    instance = {"type": "elements", "elements": [W2J(e) for e in tree.elements]}
    doc = wrap(
        "tree",
        instance,
        {"generator": W2J(gen), "dimension": tree.dimension,
         "elements": [W2J(e) for e in tree.elements]},
        len(tree.elements),
    )
    _emit(doc, args, f"generator {format_word(gen)}")
    return 0


def cmd_tree_iso(args):
    from .certificates import word_to_json as W2J
    from .trees import canonical_iso, tree_from_generator
    from .words import parse_word

    tree = tree_from_generator(parse_word(args.gen, args.k))
    iso = canonical_iso(tree)
    doc = {
        "kind": "canonical-iso",
        "tree": _tree_doc(tree),
        "map": [
            {"element": W2J(e), "pattern": W2J(u)} for e, u in sorted(
                iso.to_pattern.items(), key=lambda kv: kv[0].key()
            )
        ],
    }
    _emit(doc, args, f"{len(iso.to_pattern)} pairs")
    return 0


# ---------------------------------------------------------------------------
# large


def cmd_large_density(args):
    from fractions import Fraction

    from .certificates import family_to_json
    from .largeness import density_profile

    fam = _family(args.family)
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--eps {args.eps!r} is not a fraction", "<command line>") from None
    prof = density_profile(fam, eps)
    doc = {
        "kind": "density-profile",
        "family": family_to_json(fam),
        "epsilon": str(eps),
        "densities": [str(d) for d in prof.densities],
        "witness_lengths": list(prof.witness_lengths),
    }
    _emit(doc, args, f"witness lengths {list(prof.witness_lengths)}")
    return 0


def cmd_large_syndetic(args):
    from .certificates import family_to_json, word_to_json as W2J
    from .largeness import is_syndetic
    from .words import format_word

    fam = _family(args.family)
    chk = is_syndetic(fam, args.ell, want_witness=True)
    doc = {
        "kind": "syndetic-check",
        "family": family_to_json(fam),
        "ell": args.ell,
        "ok": chk.ok,
    }
    if chk.ok:
        doc["translators"] = [
            [W2J(s), W2J(t)] for s, t in chk.witness.translators
        ]
    else:
        doc["counterexample"] = W2J(chk.counterexample)
    _emit(doc, args, "syndetic" if chk.ok else f"fails at {format_word(chk.counterexample)}")
    return 0


def cmd_large_thick(args):
    from .certificates import family_to_json, word_to_json as W2J
    from .largeness import is_thick

    fam = _family(args.family)
    chk = is_thick(fam, args.ell_max)
    doc = {
        "kind": "thick-check",
        "family": family_to_json(fam),
        "ell_max": args.ell_max,
        "ok": chk.ok,
    }
    if chk.ok:
        doc["anchors"] = [[l, W2J(s)] for l, s in chk.witness.anchors]
    else:
        doc["failing_ell"] = chk.failing_ell
    _emit(doc, args, "thick" if chk.ok else f"fails at ell={chk.failing_ell}")
    return 0


def cmd_large_split(args):
    from .certificates import decomposition_to_json, family_to_json, word_to_json as W2J, wrap
    from .largeness import is_syndetic, pw_split

    dec = _decomposition(args)
    b = _family(args.part)
    c = dec.part - b
    res = pw_split(dec, b, c)
    instance = {
        "type": "split-instance",
        "decomposition": decomposition_to_json(dec),
        "b": family_to_json(b),
        "c": family_to_json(c),
    }
    witness = {"side": res.side}
    checked = 2
    if res.side == "B":
        wit = is_syndetic(res.decomposition.syndetic, dec.ell, want_witness=True)
        witness["translators"] = [[W2J(s), W2J(t)] for s, t in wit.witness.translators]
        checked += len(wit.witness.translators)
    else:
        witness["counterexample"] = W2J(res.syndetic_check.counterexample)
        witness["thick_anchors"] = [
            [l, W2J(s)] for l, s in res.thick_evidence.witness.anchors
        ]
        checked += len(res.thick_evidence.witness.anchors)
    doc = wrap("split", instance, witness, checked)
    _emit(doc, args, f"side {res.side}, part of {len(res.chosen)} words")
    return 0


def cmd_large_brown(args):
    from .certificates import decomposition_to_json, family_to_json, word_to_json as W2J, wrap
    from .largeness import brown_select, is_syndetic

    dec = _decomposition(args)
    parts = [_family(p) for p in args.parts]
    sel = brown_select(dec, parts)
    wit_syn = is_syndetic(sel.decomposition.syndetic, dec.ell, want_witness=True)
    instance = {
        "type": "brown-instance",
        "decomposition": decomposition_to_json(dec),
        "parts": [family_to_json(p) for p in parts],
    }
    witness = {
        "index": sel.index,
        "subset": list(sel.subset),
        "translators": [[W2J(s), W2J(t)] for s, t in wit_syn.witness.translators],
        "removal_counterexample": W2J(sel.removal_check.counterexample),
        "thick_anchors": [[l, W2J(s)] for l, s in sel.thick_evidence.witness.anchors],
    }
    doc = wrap(
        "brown", instance, witness, len(witness["translators"]) + 1
    )
    _emit(doc, args, f"part {sel.index} selected")
    return 0


def cmd_large_shrink(args):
    from .certificates import family_to_json
    from .largeness import thick_shrink

    fam = _family(args.family)
    out = thick_shrink(fam, args.ell)
    doc = {
        "kind": "thick-shrink",
        "family": family_to_json(fam),
        "ell": args.ell,
        "result": family_to_json(out),
    }
    _emit(doc, args, f"{len(out)} words at horizon {out.N}")
    return 0


# ---------------------------------------------------------------------------
# search


def line_letter_certificate_doc(coloring: Coloring, cert) -> dict:
    from .certificates import coloring_to_json, word_to_json as W2J, wrap

    instance = coloring_to_json(coloring)
    witness = {
        "generator": W2J(cert.line.generator),
        "letter": cert.letter,
        "color": cert.color,
        "checked": [W2J(w) for w in cert.checked],
    }
    return wrap("line-letter", instance, witness, len(cert.checked))


def cmd_search_line(args):
    from .search import search_line_with_letter
    from .words import format_word

    coloring = _coloring(args.coloring)
    cert = search_line_with_letter(coloring, workers=args.workers)
    doc = line_letter_certificate_doc(coloring, cert)
    _emit(doc, args, f"line {format_word(cert.line.generator)}, letter {cert.letter}, color {cert.color}")
    return 0


def csl_certificate_doc(coloring: Coloring, cert) -> dict:
    from .certificates import coloring_to_json, word_to_json as W2J, wrap

    instance = coloring_to_json(coloring)
    witness = {
        "word": W2J(cert.word),
        "color": cert.color,
        "depth": cert.depth,
        "checked": [[W2J(u), W2J(img)] for u, img in cert.checked],
    }
    doc = wrap("csl", instance, witness, len(cert.checked))
    return doc


def cmd_search_csl(args):
    from .prehomog import csl_search
    from .words import format_word

    coloring = _coloring(args.coloring)
    cert = csl_search(
        coloring, args.depth, max_len=args.max_len, workers=args.workers
    )
    doc = csl_certificate_doc(coloring, cert)
    _emit(doc, args, f"prefix {format_word(cert.word)}, color {cert.color}")
    return 0


def builder_certificate_doc(dec, trace) -> dict:
    from .certificates import decomposition_to_json, word_to_json as W2J, wrap

    instance = {
        "type": "builder-instance",
        "decomposition": decomposition_to_json(dec),
    }
    stages = []
    for st in trace.stages:
        stages.append(
            {
                "generator": W2J(st.tree.generator),
                "block": W2J(st.block),
                "residue": decomposition_to_json(st.residue.decomposition),
                "claim1": {"ok": st.claim1_ok, "checked": st.claim1_checked, "skipped": st.claim1_skipped},
                "claim2": {"ok": st.claim2_ok, "checked": st.claim2_checked, "skipped": st.claim2_skipped},
            }
        )
    checked = sum(s.claim1_checked + s.claim2_checked for s in trace.stages)
    return wrap("builder-trace", instance, {"stages": stages}, checked)


def cmd_search_builder(args):
    from .search import iterate_builder
    from .words import format_word

    dec = _decomposition(args)
    trace = iterate_builder(
        dec, args.steps, m_bound=args.m_bound, workers=args.workers
    )
    doc = builder_certificate_doc(dec, trace)
    _emit(
        doc,
        args,
        f"tree of dimension {trace.tree.dimension}, generator {format_word(trace.tree.generator)}",
    )
    return 0


def prehomog_certificate_doc(coloring, w, out, verify_tail: int) -> dict:
    from .certificates import coloring_to_json, word_to_json as W2J, wrap

    instance = {
        "type": "prehomog-instance",
        "coloring": coloring_to_json(coloring),
        "w": W2J(w),
        "stem": W2J(out.stem),
        "verify_tail": verify_tail,
    }
    witness = {
        "w_hat": W2J(out.w_hat),
        "color": out.color,
        "z_word": W2J(out.z_word),
    }
    return wrap("prehomog", instance, witness, len(out.checked))


def cmd_search_prehomog(args):
    from .certificates import coloring_to_json, word_to_json as W2J
    from .prehomog import one_step_prehomog, prehomog_check
    from .words import format_word, parse_word

    coloring = _coloring(args.coloring)
    w = parse_word(args.w, coloring.k)
    if args.check:
        rep = prehomog_check(w, coloring, args.stem_max, args.tail_max)
        doc = {
            "kind": "prehomog-check",
            "coloring": coloring_to_json(coloring),
            "w": W2J(w),
            "ok": rep.ok,
            "checked": rep.checked,
        }
        if rep.counterexample:
            s, t0, t1 = rep.counterexample
            doc["counterexample"] = [W2J(s), W2J(t0), W2J(t1)]
        _emit(doc, args, "prehomogeneous" if rep.ok else "counterexample found")
        return 0
    stem = parse_word(args.s, coloring.k)
    out = one_step_prehomog(
        w, stem, coloring, depth=args.depth, verify_tail=args.tail_max,
        workers=args.workers,
    )
    doc = prehomog_certificate_doc(coloring, w, out, args.tail_max)
    _emit(doc, args, f"w_hat {format_word(out.w_hat)}, color {out.color}")
    return 0


# ---------------------------------------------------------------------------
# cdrt


def cmd_cdrt_translate(args):
    from .cdrt import translate
    from .certificates import coloring_to_json

    coloring = _coloring(args.coloring)
    out = translate(coloring)
    doc = {
        "kind": "cdrt-translation",
        "coloring": coloring_to_json(coloring),
        "translated": coloring_to_json(out),
    }
    _emit(doc, args, f"dimension {out.n} over the empty alphabet")
    return 0


def cdrt_certificate_doc(coloring, pb, depth: int, w_hat: Word) -> dict:
    from .certificates import coloring_to_json, word_to_json as W2J, wrap

    instance = {
        "type": "cdrt-instance",
        "coloring": coloring_to_json(coloring),
        "depth": depth,
    }
    witness = {
        "w_hat": W2J(w_hat),
        "word": W2J(pb.word),
        "color": pb.color,
    }
    return wrap("cdrt", instance, witness, len(pb.checked))


def cmd_cdrt_pullback(args):
    from .cdrt import pullback_certificate, translate
    from .prehomog import CslCertificate, csl_search
    from .words import format_word, parse_word

    coloring = _coloring(args.coloring)
    translated = translate(coloring)
    if args.what:
        w_hat = parse_word(args.what, 0)
        cert = CslCertificate(w_hat, args.color, args.depth, ())
        # re-derive the checked pairs instead of trusting the caller
        pb = pullback_certificate(cert, coloring, depth=args.depth)
    else:
        # the pulled-back prefix needs k extra variables for the letter slots
        inner = csl_search(
            translated,
            coloring.k + args.depth,
            max_len=args.max_len,
            workers=args.workers,
        )
        w_hat = inner.word
        pb = pullback_certificate(inner, coloring, depth=args.depth)
    doc = cdrt_certificate_doc(coloring, pb, args.depth, w_hat)
    _emit(doc, args, f"pullback {format_word(pb.word)}, color {pb.color}")
    return 0


# ---------------------------------------------------------------------------
# henson


def cmd_henson_enum(args):
    from .certificates import word_to_json as W2J
    from .henson import enum_vertices

    verts = enum_vertices(args.horizon)
    doc = {
        "kind": "henson-vertices",
        "horizon": args.horizon,
        "count": len(verts),
        "vertices": [W2J(v) for v in verts],
    }
    _emit(doc, args, f"{len(verts)} vertices")
    return 0


def cmd_henson_edge(args):
    from .certificates import word_to_json as W2J
    from .henson import edge
    from .words import parse_word

    v = parse_word(args.v, 1)
    w = parse_word(args.w, 1)
    res = edge(v, w)
    _emit(
        {"kind": "henson-edge", "v": W2J(v), "w": W2J(w), "edge": res},
        args,
        str(res),
    )
    return 0


def cmd_henson_triangles(args):
    from .sweeps import henson_triangle_report

    rep = henson_triangle_report(args.horizon)
    doc = {
        "kind": "henson-triangle-scan",
        "horizon": rep.horizon,
        "vertices": rep.vertices,
        "edges": rep.edges,
        "triangle_free": True,
    }
    _emit(doc, args, f"{rep.vertices} vertices, {rep.edges} edges, no triangle")
    return 0


def embedding_certificate_doc(g, images, mode: str, horizon) -> dict:
    from .certificates import graph_to_json, word_to_json as W2J, wrap

    instance = {
        "type": "embedding-instance",
        "graph": graph_to_json(g),
        "mode": mode,
        "horizon": horizon,
    }
    witness = {"words": [W2J(w) for w in images]}
    return wrap("embedding", instance, witness, g.n * (g.n - 1) // 2 or 1)


def cmd_henson_embed(args):
    from .henson import greedy_embed, phi_embed
    from .words import format_word

    g = _graph(args.graph)
    if args.phi:
        pe = phi_embed(g)
        doc = embedding_certificate_doc(g, pe.words, "phi", args.horizon)
        doc["in_vertex_set"] = list(pe.in_vertex_set)
        _emit(doc, args, f"phi image {[format_word(w) for w in pe.words]}")
    else:
        images = greedy_embed(g, args.horizon)
        doc = embedding_certificate_doc(g, images, "greedy", args.horizon)
        _emit(doc, args, f"greedy image {[format_word(w) for w in images]}")
    return 0


def envelope_certificate_doc(members, env) -> dict:
    from .certificates import word_to_json as W2J, wrap

    instance = {"type": "envelope-instance", "members": [W2J(s) for s in members]}
    witness = {
        "word": W2J(env.word),
        "variable_count": env.variable_count,
        "bound": env.bound,
        "minimal_by_search_order": True,
        "assignments": [[W2J(s), W2J(t)] for s, t in env.assignments],
    }
    return wrap("envelope", instance, witness, len(env.assignments))


def cmd_henson_envelope(args):
    from .henson import minimal_envelope
    from .words import format_word, parse_word

    members = [parse_word(t.strip(), 1) for t in args.members.split(",")]
    env = minimal_envelope(members)
    doc = envelope_certificate_doc(members, env)
    _emit(
        doc,
        args,
        f"envelope {format_word(env.word)} with {env.variable_count} variables (bound {env.bound})",
    )
    return 0


def _chi_from_file(path: str, n: int):
    """The --chi table, read as a function that names the file when an embedding has no line."""
    from .words import format_word, parse_word

    table = {}
    for i, line in enumerate(_read(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != n + 1:
            raise InputError(f"expected {n} words and a color", path, i, 1)
        try:
            words = tuple(parse_word(t, 1) for t in parts[:n])
        except VarwordError as exc:
            raise InputError(str(exc), path, i, 1) from None
        try:
            table[words] = int(parts[n])
        except ValueError:
            raise InputError(f"bad color {parts[n]!r}", path, i, line.rindex(parts[n]) + 1) from None

    def chi(emb):
        try:
            return table[emb]
        except KeyError:
            missing = " ".join(format_word(w) for w in emb)
            raise InputError(f"no color for the embedding {missing}", path) from None

    return chi


def cmd_henson_profile(args):
    from .certificates import graph_to_json
    from .henson import profile_coloring

    g = _graph(args.graph)
    if args.chi:
        chi = _chi_from_file(args.chi, g.n)
    else:
        chi = lambda emb: 0
    prof = profile_coloring(chi, g, args.horizon)
    doc = {
        "kind": "henson-profile",
        "graph": graph_to_json(g),
        "horizon": args.horizon,
        "dimension": prof.dimension,
        "slot_count": prof.slot_count,
        "distinct_profiles": prof.distinct_profiles,
        "patterns": len(prof.table),
    }
    _emit(
        doc,
        args,
        f"dimension {prof.dimension}, {prof.slot_count} slots, {prof.distinct_profiles} distinct profiles",
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    import json

    from .certificates import verify_certificate

    try:
        doc = json.loads(_read(args.certificate))
    except ValueError as exc:
        raise InputError(f"bad JSON: {exc}", args.certificate, 1, 1) from None
    if not isinstance(doc, dict):
        raise InputError("certificate is not a JSON object", args.certificate, 1, 1)
    res = verify_certificate(doc)
    _emit(
        {"kind": "verification", "certificate_kind": res.kind, "ok": res.ok, "detail": res.detail},
        args,
        f"{res.kind}: {'OK' if res.ok else 'FAIL'} ({res.detail})",
    )
    return 0 if res.ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # Flags several commands share; each command gets only those its
    # handler reads.  argparse runs a string default through ``type``, so a
    # malformed VARWORD_WORKERS is a usage error, not a traceback.
    shared = {
        "k": {"type": int, "default": 2, "help": "alphabet size"},
        "ell": {"type": int, "default": 2, "help": "color count / syndeticity bound"},
        "horizon": {"type": int, "default": 8, "help": "word length horizon"},
        "dim": {"type": int, "default": 0, "help": "variable-word dimension"},
        "workers": {
            "type": int,
            "default": os.environ.get("VARWORD_WORKERS", "1"),
            "help": "worker count (output is identical for any value)",
        },
    }

    def command(group, name: str, fn, *flags: str):
        # no abbreviations: a flag the command does not read (--ell on
        # `large thick`) must fail rather than match a longer one (--ell-max)
        p = group.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.add_argument("--json-out", help="also write the JSON result to this file")
        p.set_defaults(fn=fn)
        return p

    ap = argparse.ArgumentParser(
        prog="varword",
        description="variable words, instantiation trees, largeness and coded-graph searches",
    )
    ap.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = ap.add_subparsers(dest="group", required=True)

    word = sub.add_parser("word").add_subparsers(dest="cmd", required=True)
    p = command(word, "validate", cmd_word_validate, "k", "dim")
    p.add_argument("--w", required=True)
    p.add_argument("--ordered", action="store_true")
    p = command(word, "subst", cmd_word_subst, "k")
    p.add_argument("--w", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--omega", action="store_true", help="strict prefix semantics")
    p = command(word, "decompose", cmd_word_decompose, "k")
    p.add_argument("--w", required=True)

    tree = sub.add_parser("tree").add_subparsers(dest="cmd", required=True)
    p = command(tree, "build", cmd_tree_build, "k")
    p.add_argument("--gen", required=True)
    p = command(tree, "invert", cmd_tree_invert, "k")
    p.add_argument("--elements", required=True, help="comma-separated word list")
    p = command(tree, "iso", cmd_tree_iso, "k")
    p.add_argument("--gen", required=True)

    large = sub.add_parser("large").add_subparsers(dest="cmd", required=True)
    p = command(large, "density", cmd_large_density)
    p.add_argument("--family", required=True)
    p.add_argument("--eps", default="1/2")
    p = command(large, "syndetic", cmd_large_syndetic, "ell")
    p.add_argument("--family", required=True)
    p = command(large, "thick", cmd_large_thick)
    p.add_argument("--family", required=True)
    p.add_argument("--ell-max", type=int, default=2)
    p = command(large, "split", cmd_large_split, "ell")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--part", required=True, help="the B side of the partition")
    p = command(large, "brown", cmd_large_brown, "ell")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--parts", nargs="+", required=True)
    p = command(large, "shrink", cmd_large_shrink, "ell")
    p.add_argument("--family", required=True)

    srch = sub.add_parser("search").add_subparsers(dest="cmd", required=True)
    p = command(srch, "line", cmd_search_line, "workers")
    p.add_argument("--coloring", required=True)
    p = command(srch, "csl", cmd_search_csl, "workers")
    p.add_argument("--coloring", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--max-len", type=int, default=None)
    p = command(srch, "builder", cmd_search_builder, "ell", "workers")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--m-bound", type=int, default=2)
    p = command(srch, "prehomog", cmd_search_prehomog, "workers")
    p.add_argument("--coloring", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--s", default="-", help="stem for the one-step certificate")
    p.add_argument("--check", action="store_true", help="only test prehomogeneity")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--stem-max", type=int, default=1)
    p.add_argument("--tail-max", type=int, default=1)

    cd = sub.add_parser("cdrt").add_subparsers(dest="cmd", required=True)
    p = command(cd, "translate", cmd_cdrt_translate)
    p.add_argument("--coloring", required=True)
    p = command(cd, "pullback", cmd_cdrt_pullback, "workers")
    p.add_argument("--coloring", required=True)
    p.add_argument("--what", help="prefix over the empty alphabet; searched when omitted")
    p.add_argument("--color", type=int, default=0)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--max-len", type=int, default=None)

    hs = sub.add_parser("henson").add_subparsers(dest="cmd", required=True)
    command(hs, "enum", cmd_henson_enum, "horizon")
    p = command(hs, "edge", cmd_henson_edge)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    command(hs, "triangles", cmd_henson_triangles, "horizon")
    p = command(hs, "embed", cmd_henson_embed, "horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--phi", action="store_true", help="direct formula instead of greedy")
    p = command(hs, "envelope", cmd_henson_envelope)
    p.add_argument("--members", required=True, help="comma-separated words over {0,x0}")
    p = command(hs, "profile", cmd_henson_profile, "horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--chi", help="file of 'w1 .. wn color' lines; constant 0 otherwise")

    p = command(sub, "verify", cmd_verify)
    p.add_argument("certificate")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved for
        # searches that exhaust their horizon
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (NotFoundWithinHorizon, NoPartSelected) as exc:
        from .certificates import canonical_json

        sys.stdout.write(
            canonical_json(
                {"kind": "not-found", "error": type(exc).__name__, "message": str(exc)}
            )
        )
        print(f"not found: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except VarwordError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
