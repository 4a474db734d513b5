"""Kill switches for the cost-model-preserving fast paths.

The hot paths of the study are memoised at three layers — the NSEC3
digest memo (:mod:`repro.dnssec.nsec3hash`), the RRSIG-verification memo
(:mod:`repro.dnssec.validator`), and the authoritative packed-answer
cache (:mod:`repro.server.authoritative`) — plus the RSA-CRT signing
path (:mod:`repro.crypto.rsa`). Every one of them is behaviourally
transparent: a hit charges the DNSSEC cost model exactly as the real
computation would, so reports and guard decisions are byte-identical
with the fast paths on or off. CI asserts exactly that, which requires
turning them off; this module is the single switchboard.

Switches are named, default-on, and disabled either programmatically
(:func:`disable`, or the :func:`disabled` context manager) or through
the environment::

    REPRO_FASTPATH_DISABLE=answer_cache,validator_memo  repro study ...
    REPRO_FASTPATH_DISABLE=all                          repro study ...

The CLI exposes the same knob as ``--disable-fastpath``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Every switch this module knows about. ``build_cache`` covers the
#: cross-process signed-zone build cache plus the batched signing fast
#: paths it rides with (chain-batched NSEC3 hashing, hoisted per-zone
#: RSA signing setup); disabling it forces every process to
#: cold-rebuild and re-sign the full testbed.
KNOWN_SWITCHES = (
    "validator_memo",
    "answer_cache",
    "nsec3_memo",
    "rsa_crt",
    "build_cache",
)

_ENV_VAR = "REPRO_FASTPATH_DISABLE"

_disabled = set()

#: Why the environment's switch list was rejected, or None. Importing
#: must not fail, so the error waits here and every query of the
#: switchboard raises it: a bad list is never silently ignored.
_env_error = None


def _parse_spec(spec):
    names = set()
    for token in (spec or "").split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            names.update(KNOWN_SWITCHES)
            continue
        if token not in KNOWN_SWITCHES:
            raise ValueError(
                f"unknown fast-path switch {token!r} "
                f"(known: {', '.join(KNOWN_SWITCHES)}, or 'all')"
            )
        names.add(token)
    return names


def enabled(name):
    """True when the fast path *name* should be used."""
    if _env_error is not None:
        raise ValueError(_env_error)
    return name not in _disabled


def disable(spec):
    """Disable switches named in *spec* (comma list, or ``all``)."""
    _disabled.update(_parse_spec(spec))


def disabled_names():
    """The currently disabled switches, sorted — e.g. for shipping the
    parent's programmatic state across a spawn boundary."""
    if _env_error is not None:
        raise ValueError(_env_error)
    return tuple(sorted(_disabled))


def reset():
    """Restore the environment-configured state.

    Raises :class:`ValueError` when the environment names an unknown
    switch; :func:`enabled` and :func:`disabled_names` then raise it too
    until a later reset succeeds.
    """
    global _env_error
    _disabled.clear()
    _env_error = None
    try:
        _disabled.update(_parse_spec(os.environ.get(_ENV_VAR, "")))
    except ValueError as exc:
        _env_error = f"{_ENV_VAR}: {exc}"
        raise ValueError(_env_error) from None


@contextmanager
def disabled(spec):
    """Context manager disabling *spec* and restoring the prior state."""
    saved = set(_disabled)
    disable(spec)
    try:
        yield
    finally:
        _disabled.clear()
        _disabled.update(saved)


try:
    reset()
except ValueError:
    pass  # raised again on first use; the CLI reports it as a usage error
