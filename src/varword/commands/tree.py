"""``varword tree``: build, invert and pattern-map instantiation trees."""

from __future__ import annotations

from ..certificates import tree_certificate_doc, tree_to_json, word_to_json as W2J
from ..cli import _command, _emit
from ..trees import canonical_iso, generator_from_tree, tree_from_generator
from ..words import check_universe, dimension, format_word, parse_word


def _tree(args):
    """The tree of --gen, refused before it is built when it has more than
    ``MAX_UNIVERSE`` elements (k^0 + ... + k^d for dimension d)."""
    g = parse_word(args.gen, args.k)
    check_universe(args.k, dimension(g), f"tree of a dimension-{dimension(g)} generator over k={args.k}")
    return tree_from_generator(g)


def cmd_tree_build(args):
    tree = _tree(args)
    doc = tree_certificate_doc(tree)
    doc["tree"] = tree_to_json(tree)
    _emit(doc, args, f"{len(tree.elements)} elements, dimension {tree.dimension}")
    return 0


def cmd_tree_invert(args):
    k = args.k
    words = [parse_word(t.strip(), k) for t in args.elements.split(",")]
    gen = generator_from_tree(words)
    _emit(tree_certificate_doc(tree_from_generator(gen)), args, f"generator {format_word(gen)}")
    return 0


def cmd_tree_iso(args):
    tree = _tree(args)
    iso = canonical_iso(tree)
    doc = {
        "kind": "canonical-iso",
        "tree": tree_to_json(tree),
        "map": [
            {"element": W2J(e), "pattern": W2J(u)} for e, u in sorted(
                iso.to_pattern.items(), key=lambda kv: kv[0].key()
            )
        ],
    }
    _emit(doc, args, f"{len(iso.to_pattern)} pairs")
    return 0


def register(sub) -> None:
    tree = sub.add_parser("tree").add_subparsers(dest="cmd", required=True)
    p = _command(tree, "build", cmd_tree_build, "k")
    p.add_argument("--gen", required=True)
    p = _command(tree, "invert", cmd_tree_invert, "k")
    p.add_argument("--elements", required=True, help="comma-separated word list")
    p = _command(tree, "iso", cmd_tree_iso, "k")
    p.add_argument("--gen", required=True)
