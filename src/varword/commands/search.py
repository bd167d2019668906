"""``varword search``: line-with-letter, csl, builder and prehomogeneity
searches, each emitting a certificate."""

from __future__ import annotations

from ..certificates import (
    builder_certificate_doc,
    coloring_to_json,
    csl_certificate_doc,
    line_letter_certificate_doc,
    prehomog_certificate_doc,
    word_to_json as W2J,
)
from ..cli import _coloring, _command, _decomposition, _emit
from ..search import iterate_builder, search_line_with_letter
from ..words import format_word, parse_word

# csl and prehomog import ``prehomog`` in their handlers, so a line or
# builder search does not compile it


def cmd_search_line(args):
    coloring = _coloring(args.coloring)
    cert = search_line_with_letter(coloring)
    doc = line_letter_certificate_doc(coloring, cert)
    _emit(doc, args, f"line {format_word(cert.line.generator)}, letter {cert.letter}, color {cert.color}")
    return 0


def cmd_search_csl(args):
    from ..prehomog import csl_search

    coloring = _coloring(args.coloring)
    cert = csl_search(coloring, args.depth, max_len=args.max_len)
    doc = csl_certificate_doc(coloring, cert)
    _emit(doc, args, f"prefix {format_word(cert.word)}, color {cert.color}")
    return 0


def cmd_search_builder(args):
    dec = _decomposition(args)
    trace = iterate_builder(dec, args.steps, m_bound=args.m_bound)
    doc = builder_certificate_doc(dec, trace)
    _emit(
        doc,
        args,
        f"tree of dimension {trace.tree.dimension}, generator {format_word(trace.tree.generator)}",
    )
    return 0


def cmd_search_prehomog(args):
    from ..prehomog import one_step_prehomog, prehomog_check

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
        w, stem, coloring, depth=args.depth, verify_tail=args.tail_max
    )
    doc = prehomog_certificate_doc(coloring, w, out, args.tail_max)
    _emit(doc, args, f"w_hat {format_word(out.w_hat)}, color {out.color}")
    return 0


def register(sub) -> None:
    srch = sub.add_parser("search").add_subparsers(dest="cmd", required=True)
    p = _command(srch, "line", cmd_search_line)
    p.add_argument("--coloring", required=True)
    p = _command(srch, "csl", cmd_search_csl)
    p.add_argument("--coloring", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--max-len", type=int, default=None)
    p = _command(srch, "builder", cmd_search_builder, "ell")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--m-bound", type=int, default=2)
    p = _command(srch, "prehomog", cmd_search_prehomog)
    p.add_argument("--coloring", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--s", default="-", help="stem for the one-step certificate")
    p.add_argument("--check", action="store_true", help="only test prehomogeneity")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--stem-max", type=int, default=1)
    p.add_argument("--tail-max", type=int, default=1)
