"""``varword henson``: the word-coded triangle-free graph, its embeddings,
envelopes and profile colorings."""

from __future__ import annotations

from ..certificates import embedding_certificate_doc, envelope_certificate_doc, graph_to_json
from ..certificates import word_to_json as W2J
from ..cli import _command, _emit, _graph, _read
from ..errors import InputError
from ..henson import (
    MAX_VERTEX_HORIZON,
    edge,
    enum_vertices,
    greedy_embed,
    minimal_envelope,
    parse_chi,
    phi_embed,
    profile_coloring,
)
from ..words import format_word, parse_word


def _vertex_horizon(args) -> int:
    """--horizon of a command that builds the whole vertex set, refused above the cap."""
    if args.horizon > MAX_VERTEX_HORIZON:
        cap = MAX_VERTEX_HORIZON
        raise InputError(f"--horizon {args.horizon} is above the vertex-set cap {cap}", "<command line>")
    return args.horizon


def cmd_henson_enum(args):
    verts = enum_vertices(_vertex_horizon(args))
    doc = {
        "kind": "henson-vertices",
        "horizon": args.horizon,
        "count": len(verts),
        "vertices": [W2J(v) for v in verts],
    }
    _emit(doc, args, f"{len(verts)} vertices")
    return 0


def cmd_henson_edge(args):
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
    horizon = _vertex_horizon(args)
    from ..sweeps import henson_triangle_report  # the only henson command on numpy

    rep = henson_triangle_report(horizon)
    doc = {
        "kind": "henson-triangle-scan",
        "horizon": rep.horizon,
        "vertices": rep.vertices,
        "edges": rep.edges,
        "triangle_free": True,
    }
    _emit(doc, args, f"{rep.vertices} vertices, {rep.edges} edges, no triangle")
    return 0


def cmd_henson_embed(args):
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


def cmd_henson_envelope(args):
    members = [parse_word(t.strip(), 1) for t in args.members.split(",")]
    env = minimal_envelope(members)
    doc = envelope_certificate_doc(members, env)
    _emit(
        doc,
        args,
        f"envelope {format_word(env.word)} with {env.variable_count} variables (bound {env.bound})",
    )
    return 0


def cmd_henson_profile(args):
    g = _graph(args.graph)
    if args.chi:
        chi = parse_chi(_read(args.chi), g.n, args.chi)
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


def register(sub) -> None:
    hs = sub.add_parser("henson").add_subparsers(dest="cmd", required=True)
    _command(hs, "enum", cmd_henson_enum, "horizon")
    p = _command(hs, "edge", cmd_henson_edge)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    _command(hs, "triangles", cmd_henson_triangles, "horizon")
    p = _command(hs, "embed", cmd_henson_embed, "horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--phi", action="store_true", help="direct formula instead of greedy")
    p = _command(hs, "envelope", cmd_henson_envelope)
    p.add_argument("--members", required=True, help="comma-separated words over {0,x0}")
    p = _command(hs, "profile", cmd_henson_profile, "horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--chi", help="file of 'w1 .. wn color' lines; constant 0 otherwise")
