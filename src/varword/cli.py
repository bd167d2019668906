"""Command-line surface: the parser, the shared file readers and ``_emit``.

Structured canonical JSON goes to stdout, a one-line human summary to
stderr.  Exit codes: 0 on success or certificate found, 2 when a
bounded search legitimately exhausts its horizon, 1 on input errors.
``--json-out FILE`` additionally writes the same bytes to a file.
Identical arguments produce byte-identical output; the searches walk
their candidates lazily in one thread.

Every process is a fresh interpreter, so a command loads only its own
code: the handlers live in ``varword.commands``, one module per group,
and ``build_parser`` imports and fills in only the group that argv
names.  A group module imports the domain modules its commands run
(a handler that alone needs one imports it itself); ``--version``
loads no domain module at all.  Input files are parsed by their types'
``parse`` methods, and certificates are built by ``varword.certificates``;
its ``*_certificate_doc`` builders resolve here too, on first access.
"""

from __future__ import annotations

import argparse
import importlib
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

TOOL_VERSION = f"varword {__version__}"


def __getattr__(name: str):
    # the certificate builders load with ``certificates`` only when one is asked for;
    # the only caller is perfbench/wl_objects.py (six calls), whose edit goes with
    # the next benchmark change, which deletes this shim
    if name.endswith("_certificate_doc"):
        from . import certificates

        return getattr(certificates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# shared readers and output


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc), path, 0, 0) from None


def _family(path: str) -> FiniteFamily:
    from .largeness import FiniteFamily

    return FiniteFamily.parse(_read(path), path)


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
    if getattr(args, "json_out", None):
        try:  # before stdout, so an unwritable path leaves stdout empty
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(str(exc), args.json_out, 0, 0) from None
    sys.stdout.write(payload)
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# parser

GROUPS = ("word", "tree", "large", "search", "cdrt", "henson", "verify")

# Flags several commands share; each command gets only those its handler
# reads.
_SHARED = {
    "k": {"type": int, "default": 2, "help": "alphabet size"},
    "ell": {"type": int, "default": 2, "help": "color count / syndeticity bound"},
    "horizon": {"type": int, "default": 8, "help": "word length horizon"},
    "dim": {"type": int, "default": 0, "help": "variable-word dimension"},
}


def _command(group, name: str, fn, *flags: str):
    """Add command ``name`` to a group's subparsers, with the shared flags it reads."""
    # no abbreviations: a flag the command does not read (--ell on
    # `large thick`) must fail rather than match a longer one (--ell-max)
    p = group.add_parser(name, allow_abbrev=False)
    for flag in flags:
        p.add_argument(f"--{flag}", **_SHARED[flag])
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
