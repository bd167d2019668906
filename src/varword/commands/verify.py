"""``varword verify``: re-check a certificate without search code."""

from __future__ import annotations

import json

from ..certificates import verify_certificate
from ..cli import _command, _emit, _read
from ..errors import InputError


def cmd_verify(args):
    try:
        doc = json.loads(_read(args.certificate))
    except (ValueError, RecursionError) as exc:
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


def register(sub) -> None:
    p = _command(sub, "verify", cmd_verify)
    p.add_argument("certificate")
