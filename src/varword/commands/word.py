"""``varword word``: validate, substitute into and decompose one word."""

from __future__ import annotations

from ..certificates import word_to_json as W2J
from ..cli import _command, _emit
from ..words import decompose, format_word, parse_word, substitute, validate


def cmd_word_validate(args):
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


def register(sub) -> None:
    word = sub.add_parser("word").add_subparsers(dest="cmd", required=True)
    p = _command(word, "validate", cmd_word_validate, "k", "dim")
    p.add_argument("--w", required=True)
    p.add_argument("--ordered", action="store_true")
    p = _command(word, "subst", cmd_word_subst, "k")
    p.add_argument("--w", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--omega", action="store_true", help="strict prefix semantics")
    p = _command(word, "decompose", cmd_word_decompose, "k")
    p.add_argument("--w", required=True)
