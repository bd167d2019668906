"""``varword large``: density, syndeticity and thickness checks, and the
piecewise-syndetic split and Brown selection certificates."""

from __future__ import annotations

from fractions import Fraction

from ..certificates import brown_certificate_doc, family_to_json, split_certificate_doc
from ..certificates import word_to_json as W2J
from ..cli import _command, _decomposition, _emit, _family
from ..errors import InputError
from ..largeness import brown_select, density_profile, is_syndetic, is_thick, pw_split, thick_shrink
from ..words import format_word


def cmd_large_density(args):
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


def _translators(dec):
    """The syndeticity translators of a decomposition's syndetic side, at its ell."""
    return is_syndetic(dec.syndetic, dec.ell, want_witness=True).witness.translators


def cmd_large_split(args):
    dec = _decomposition(args)
    b = _family(args.part)
    c = dec.part - b
    res = pw_split(dec, b, c)
    translators = _translators(res.decomposition) if res.side == "B" else ()
    doc = split_certificate_doc(dec, b, c, res, translators)
    _emit(doc, args, f"side {res.side}, part of {len(res.chosen)} words")
    return 0


def cmd_large_brown(args):
    dec = _decomposition(args)
    parts = [_family(p) for p in args.parts]
    sel = brown_select(dec, parts)
    doc = brown_certificate_doc(dec, parts, sel, _translators(sel.decomposition))
    _emit(doc, args, f"part {sel.index} selected")
    return 0


def cmd_large_shrink(args):
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


def register(sub) -> None:
    large = sub.add_parser("large").add_subparsers(dest="cmd", required=True)
    p = _command(large, "density", cmd_large_density)
    p.add_argument("--family", required=True)
    p.add_argument("--eps", default="1/2")
    p = _command(large, "syndetic", cmd_large_syndetic, "ell")
    p.add_argument("--family", required=True)
    p = _command(large, "thick", cmd_large_thick)
    p.add_argument("--family", required=True)
    p.add_argument("--ell-max", type=int, default=2)
    p = _command(large, "split", cmd_large_split, "ell")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--part", required=True, help="the B side of the partition")
    p = _command(large, "brown", cmd_large_brown, "ell")
    p.add_argument("--syndetic", required=True)
    p.add_argument("--thick", required=True)
    p.add_argument("--parts", nargs="+", required=True)
    p = _command(large, "shrink", cmd_large_shrink, "ell")
    p.add_argument("--family", required=True)
