"""Shared plumbing for the ``python -m repro.*`` command lines.

Four entry points — ``repro.audit``, ``repro.serve``, ``repro.cluster``
and ``repro.ledger`` — share the same contract:

* exit status **0** on success, **1** when the run's own acceptance
  check failed (parity mismatch, errored requests, a broken hash
  chain), **2** on bad usage;
* usage errors print ``error: ...`` to stderr (:func:`usage_error`);
* ``--json PATH`` writes a schema-versioned document with
  ``indent=2, sort_keys=True`` and a trailing newline, confirmed by a
  ``[tag] ... written to PATH`` line (:func:`write_json`);
* ``--key-bits`` / ``--seed`` / ``--json`` / ``--log-json`` carry the
  same defaults and help text everywhere
  (:func:`add_common_arguments`); ``--log-json`` switches the
  :mod:`repro.obs.log` emitter to structured output.

This module is that contract in one place, so the CLIs stay consistent
as flags accrete.  What they run is in one place too: each builds its
network, policies and churn script from :mod:`repro.cluster.workload`
(``get(name, **spec_fields)`` / ``serve_spec``), and the three that
drive a serial monitor do it through ``drive_monitor``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "add_common_arguments",
    "envelope",
    "fail",
    "usage_error",
    "write_json",
]

EXIT_OK = 0
#: the run itself failed its acceptance check (parity, chain, errors)
EXIT_FAILURE = 1
#: bad command-line usage
EXIT_USAGE = 2


def usage_error(message: str) -> int:
    """Print a usage error to stderr and return :data:`EXIT_USAGE`."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def fail(tag: str, message: str) -> int:
    """Print a tagged failure to stderr and return :data:`EXIT_FAILURE`."""
    print(f"[{tag}] FAIL: {message}", file=sys.stderr)
    return EXIT_FAILURE


def envelope(
    schema: str, version: int, body: Dict[str, object]
) -> Dict[str, object]:
    """Wrap ``body`` in the shared schema-versioned JSON envelope.

    ``schema``/``schema_version`` always sort first in the written
    document (``sort_keys=True`` in :func:`write_json`), so every
    ``--json`` artifact self-identifies the same way.
    """
    return {"schema": schema, "schema_version": version, **body}


def write_json(
    path: str, document: Dict[str, object], *, tag: str,
    what: str = "metrics",
) -> None:
    """Write a JSON document the way every repro CLI does.

    ``indent=2, sort_keys=True``, a trailing newline, then a
    ``[tag] {what} written to {path}`` confirmation on stdout.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[{tag}] {what} written to {path}")


def add_common_arguments(
    parser,
    *,
    key_bits: int = 512,
    seed: int = 2011,
    seed_help: Optional[str] = None,
    json_help: Optional[str] = None,
) -> None:
    """Install the ``--key-bits`` / ``--seed`` / ``--json`` trio every
    repro CLI shares, with uniform defaults and help text."""
    parser.add_argument(
        "--key-bits", type=int, default=key_bits, metavar="BITS",
        help=f"RSA modulus size (default: {key_bits})",
    )
    parser.add_argument(
        "--seed", type=int, default=seed,
        help=seed_help or f"keystore / nonce / workload seed "
        f"(default: {seed})",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help=json_help or "write the schema-versioned snapshot here",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit progress lines as structured JSON (repro.obs.log) "
        "instead of '[component] message' text",
    )
