"""Command-line surface.

Structured canonical JSON goes to stdout, a one-line human summary to
stderr.  Exit codes: 0 on success or certificate found, 2 when a
bounded search legitimately exhausts its horizon, 1 on input errors.
``--json-out FILE`` additionally writes the same bytes to a file.
Identical arguments produce byte-identical output regardless of
``--workers``.

Every process is a fresh interpreter, so a command loads only its own
code: the handlers live in ``varword.commands``, one module per group,
and ``build_parser`` imports and fills in only the group that argv
names.  A group module imports the domain modules its commands run
(a handler that alone needs one imports it itself); ``--version``
loads no domain module at all.  This module keeps the shared file
readers, ``_emit`` and the certificate builders of every emitting
command.
"""

from __future__ import annotations

import argparse
import importlib
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


# ---------------------------------------------------------------------------
# shared readers and output


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
# certificate builders of the emitting commands


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


# ---------------------------------------------------------------------------
# parser

GROUPS = ("word", "tree", "large", "search", "cdrt", "henson", "verify")

# Flags several commands share; each command gets only those its handler
# reads.  argparse runs a string default through ``type``, so a malformed
# VARWORD_WORKERS is a usage error, not a traceback.
_SHARED = {
    "k": {"type": int, "default": 2, "help": "alphabet size"},
    "ell": {"type": int, "default": 2, "help": "color count / syndeticity bound"},
    "horizon": {"type": int, "default": 8, "help": "word length horizon"},
    "dim": {"type": int, "default": 0, "help": "variable-word dimension"},
    "workers": {"type": int, "help": "worker count (output is identical for any value)"},
}


def _command(group, name: str, fn, *flags: str):
    """Add command ``name`` to a group's subparsers, with the shared flags it reads."""
    # no abbreviations: a flag the command does not read (--ell on
    # `large thick`) must fail rather than match a longer one (--ell-max)
    p = group.add_parser(name, allow_abbrev=False)
    for flag in flags:
        kwargs = _SHARED[flag]
        if flag == "workers":
            kwargs = dict(kwargs, default=os.environ.get("VARWORD_WORKERS", "1"))
        p.add_argument(f"--{flag}", **kwargs)
    p.add_argument("--json-out", help="also write the JSON result to this file")
    p.set_defaults(fn=fn)
    return p


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The root parser, with commands only for the group that argv names.

    The group is argv's first token not starting with ``-``; the other
    groups get empty parsers, which keep the root's help and errors whole.
    ``argv=None`` fills in every group.
    """
    ap = argparse.ArgumentParser(
        prog="varword",
        description="variable words, instantiation trees, largeness and coded-graph searches",
    )
    ap.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = ap.add_subparsers(dest="group", required=True)
    named = GROUPS if argv is None else [next((a for a in argv if not a.startswith("-")), None)]
    for group in GROUPS:
        if group in named:
            importlib.import_module(f".commands.{group}", __package__).register(sub)
        else:
            sub.add_parser(group)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv)
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
