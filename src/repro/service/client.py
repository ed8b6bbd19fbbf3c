"""Client for the ``repro serve`` daemon (stdlib ``http.client`` only).

:func:`submit_study` is a generator: records arrive as the daemon
streams them, so a caller watching a long study sees per-job progress
lines rather than one final blob.  ``repro submit`` (the CLI) prints
them as NDJSON; tests and benchmarks consume them directly.

Hangs and half-streams are errors, never silence:

* Every connection carries a socket timeout -- ``REPRO_CLIENT_TIMEOUT``
  (seconds, ``positive_int_env`` policy, default 300) unless the caller
  passes one explicitly.  A stalled daemon raises :class:`ServiceError`
  naming the knob instead of blocking forever.
* The NDJSON stream is close-delimited (HTTP/1.0), so a bare EOF is
  ambiguous: completion and a mid-stream crash look the same on the
  wire.  The protocol's terminal ``stats`` record disambiguates --
  :func:`submit_study` raises :class:`ServiceError` if the stream ends
  before one arrives (e.g. the daemon died or the connection dropped),
  instead of silently yielding a truncated study.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Dict, Iterator, Optional, Union

from repro.config import positive_int_env
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    StudySpec,
    decode_record,
)

CLIENT_TIMEOUT_ENV_VAR = "REPRO_CLIENT_TIMEOUT"

_TRUNCATED_STREAM = (
    "stream ended before the terminal stats record -- the daemon "
    "disconnected mid-study (crashed, killed, or dropped connection)"
)


class ServiceError(RuntimeError):
    """The daemon rejected a request or reported an in-stream error."""


def client_timeout() -> float:
    """The default socket timeout in seconds (``REPRO_CLIENT_TIMEOUT``)."""
    return float(positive_int_env(CLIENT_TIMEOUT_ENV_VAR, 300))


def submit_study(
    spec: Union[StudySpec, Dict[str, object]],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    timeout: Optional[float] = None,
) -> Iterator[Dict[str, object]]:
    """POST a study spec; yield protocol records as the daemon streams them.

    Accepts a :class:`StudySpec` or its JSON-dict form (validated
    client-side first, so typos fail before touching the daemon).  An
    in-stream ``error`` record raises :class:`ServiceError` -- by then
    earlier records were already yielded, mirroring what actually
    happened server-side.  ``timeout=None`` (the default) uses
    ``REPRO_CLIENT_TIMEOUT``; a stream that times out or ends before
    the terminal ``stats`` record -- by a clean EOF or an abortive reset
    -- raises :class:`ServiceError` rather than hanging, truncating
    silently or leaking a raw socket error; so does a connection the
    daemon drops before sending a response.
    """
    if isinstance(spec, dict):
        spec = StudySpec.from_json_dict(spec)
    if timeout is None:
        timeout = client_timeout()
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    terminated = False
    responded = False
    try:
        connection.request(
            "POST",
            "/v1/studies",
            body=json.dumps(spec.to_json_dict()),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        responded = True
        if response.status != 200:
            detail = response.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(f"daemon returned {response.status}: {detail}")
        for line in response:
            record = decode_record(line)
            if record is None:
                continue
            if record.get("type") == "error":
                raise ServiceError(str(record.get("error", "unknown service error")))
            if record.get("type") == "stats":
                terminated = True
            yield record
    except socket.timeout as error:
        raise ServiceError(
            f"daemon did not respond within {timeout:g}s "
            f"({CLIENT_TIMEOUT_ENV_VAR} or the timeout argument raises it): {error}"
        ) from error
    except (ConnectionResetError, BrokenPipeError, http.client.IncompleteRead) as error:
        # An abortive close (RST) instead of a clean EOF; this also covers
        # http.client.RemoteDisconnected, a ConnectionResetError subclass.
        if not responded:
            raise ServiceError(
                f"daemon dropped the connection before responding ({error!r})"
            ) from error
        raise ServiceError(f"{_TRUNCATED_STREAM} ({error!r})") from error
    finally:
        connection.close()
    if not terminated:
        raise ServiceError(_TRUNCATED_STREAM)


def fetch_stats(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    timeout: Optional[float] = None,
) -> Dict[str, object]:
    """GET the daemon's ``/v1/stats`` snapshot.

    ``timeout=None`` uses ``REPRO_CLIENT_TIMEOUT``, same policy as
    :func:`submit_study`.
    """
    if timeout is None:
        timeout = client_timeout()
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/v1/stats")
        response = connection.getresponse()
        body = response.read().decode("utf-8")
        if response.status != 200:
            raise ServiceError(f"daemon returned {response.status}: {body}")
        return json.loads(body)
    except socket.timeout as error:
        raise ServiceError(
            f"daemon did not respond within {timeout:g}s "
            f"({CLIENT_TIMEOUT_ENV_VAR} or the timeout argument raises it): {error}"
        ) from error
    finally:
        connection.close()
