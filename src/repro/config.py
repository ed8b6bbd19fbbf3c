"""Shared configuration helpers: one policy for environment knobs.

Every environment knob of the library (the disk-cache directory and
size cap, the retry budget, the client timeout, kernel and backend
choices, ...) is parsed the same way, with the same failure policy.
In-process cache bounds are not knobs: they are constants of their
:mod:`repro.caching.lru` tiers.

* **Unset/empty** means "use the documented default" -- the variables are
  opt-in overrides, never required configuration.
* **Invalid** values -- non-numeric, zero or negative -- fall back to the
  default **with a :class:`RuntimeWarning`** naming the variable and the
  offending value.  Silently clamping turned a typo into a single-entry
  cache and an unexplained slowdown; warn-and-default makes the typo
  visible without breaking the run.
* Whether a variable is read **once** (at module import / first use) or
  **on every call** is a per-knob contract documented at the call site;
  this module only owns the parsing.  See the "Environment variables"
  section of ``docs/service.md`` for the full catalogue and each knob's
  read policy.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence, Tuple


def positive_int_env(
    name: str,
    default: Optional[int],
    *,
    invalid_note: Optional[str] = None,
    stacklevel: int = 3,
) -> Optional[int]:
    """Parse environment variable ``name`` as a positive (>= 1) integer.

    Returns ``default`` when the variable is unset or empty.  Non-numeric,
    zero or negative values emit a :class:`RuntimeWarning` (mentioning the
    variable name, so tests can match on it) and also return ``default``.

    Parameters
    ----------
    name:
        Environment variable to read.
    default:
        Value used for unset *and* invalid inputs.  ``None`` is a valid
        default for knobs whose absence means "unbounded"/"disabled"
        (e.g. ``REPRO_CACHE_MAX_BYTES``).
    invalid_note:
        Tail of the warning message describing the fallback; defaults to
        ``"using the default of {default}"``.
    stacklevel:
        Passed to :func:`warnings.warn`; the default of 3 attributes the
        warning to the caller of the function that consulted the
        environment (typically the public cache API), not this helper.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        note = invalid_note or f"using the default of {default}"
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (need a positive integer); {note}",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
        return default
    return value


def str_env(name: str, default: str = "", *, lower: bool = False) -> str:
    """Read environment variable ``name`` as a stripped string.

    Returns ``default`` (verbatim, never lower-cased) when the variable is
    unset or blank.  ``lower=True`` lower-cases a set value -- the policy
    of a name-valued knob such as ``REPRO_SIM_KERNEL``, whose registry
    keys on lower-case names.

    There is no "invalid" shape for a free-form string, so unlike
    :func:`positive_int_env` this helper never warns; *semantic*
    validation (unknown kernel names, and any warn-once
    bookkeeping a long-lived daemon needs) stays at the call site, which
    knows the registry and the failure policy.  The env-policy lint
    (:mod:`repro.analysis.source_lints`) requires every ``os.environ``
    read outside this module to route through these helpers.
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    return value.lower() if lower else value


def list_env(
    name: str, default: Sequence[str] = (), *, separator: str = ","
) -> Tuple[str, ...]:
    """Read environment variable ``name`` as a separated list of tokens.

    Returns ``tuple(default)`` when the variable is unset or blank.
    Tokens are stripped and empties dropped, so ``"a, b,"`` parses as
    ``("a", "b")`` -- and a value of only separators/whitespace counts as
    blank (the default applies) rather than selecting an empty list.
    Token *validation* (unknown pipeline names, ...) stays at the call
    site, same contract as :func:`str_env`.
    """
    raw = str_env(name)
    tokens = tuple(token.strip() for token in raw.split(separator) if token.strip())
    return tokens if tokens else tuple(default)


def duration_env(
    name: str,
    default_ms: Optional[int],
    *,
    stacklevel: int = 4,
) -> Optional[float]:
    """Parse environment variable ``name`` (milliseconds) into seconds.

    All duration knobs (``REPRO_RETRY_BASE_MS``, ``REPRO_RETRY_MAX_MS``,
    ``REPRO_RETRY_DEADLINE_MS``, ...) are expressed as positive integer
    millisecond counts in the environment -- the :func:`positive_int_env`
    policy verbatim, including the warn-and-default handling of invalid
    values -- but consumed as float seconds by ``time``-based code.  A
    ``default_ms`` of ``None`` means "no duration" (e.g. no deadline) and
    is returned as ``None``.
    """
    value = positive_int_env(name, default_ms, stacklevel=stacklevel)
    if value is None:
        return None
    return value / 1000.0


def flag_env(name: str, default: bool = False, *, stacklevel: int = 3) -> bool:
    """Parse environment variable ``name`` as a boolean switch.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` (case-insensitive);
    unset/blank returns ``default``.  Anything else emits a
    :class:`RuntimeWarning` naming the variable (the
    :func:`positive_int_env` policy) and returns ``default`` -- a typo'd
    ``REPRO_VERIFY_PASSES=ture`` must not silently disable verification.
    """
    raw = str_env(name, lower=True)
    if not raw:
        return default
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    warnings.warn(
        f"ignoring invalid {name}={raw!r} (need a boolean: 1/0, true/false, "
        f"yes/no, on/off); using the default of {default}",
        RuntimeWarning,
        stacklevel=stacklevel,
    )
    return default
