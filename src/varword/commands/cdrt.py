"""``varword cdrt``: the translation to the empty alphabet and the pullback certificate."""

from __future__ import annotations

from ..cdrt import pullback_certificate, translate
from ..certificates import cdrt_certificate_doc, coloring_to_json
from ..cli import _coloring, _command, _emit
from ..errors import InputError
from ..prehomog import CslCertificate, csl_search
from ..words import format_word, parse_word


def cmd_cdrt_translate(args):
    coloring = _coloring(args.coloring)
    if coloring.k + coloring.n > coloring.N:
        # the (k+n)-variable words of length <= N, the translation's domain, are none
        raise InputError(
            f"translation of k={coloring.k}, n={coloring.n} has an empty domain: k + n > N={coloring.N}",
            args.coloring, 1, 1,
        )
    out = translate(coloring)
    doc = {
        "kind": "cdrt-translation",
        "coloring": coloring_to_json(coloring),
        "translated": coloring_to_json(out),
    }
    _emit(doc, args, f"dimension {out.n} over the empty alphabet")
    return 0


def cmd_cdrt_pullback(args):
    coloring = _coloring(args.coloring)
    translated = translate(coloring)
    if args.what:
        w_hat = parse_word(args.what, 0)
        cert = CslCertificate(w_hat, args.color, args.depth, ())
        # re-derive the checked pairs instead of trusting the caller
        pb = pullback_certificate(cert, coloring, depth=args.depth)
    else:
        # the pulled-back prefix needs k extra variables for the letter slots
        inner = csl_search(translated, coloring.k + args.depth, max_len=args.max_len)
        w_hat = inner.word
        pb = pullback_certificate(inner, coloring, depth=args.depth)
    doc = cdrt_certificate_doc(coloring, pb, args.depth, w_hat)
    _emit(doc, args, f"pullback {format_word(pb.word)}, color {pb.color}")
    return 0


def register(sub) -> None:
    cd = sub.add_parser("cdrt").add_subparsers(dest="cmd", required=True)
    p = _command(cd, "translate", cmd_cdrt_translate)
    p.add_argument("--coloring", required=True)
    p = _command(cd, "pullback", cmd_cdrt_pullback)
    p.add_argument("--coloring", required=True)
    p.add_argument("--what", help="prefix over the empty alphabet; searched when omitted")
    p.add_argument("--color", type=int, default=0)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--max-len", type=int, default=None)
