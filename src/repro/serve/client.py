"""Retrying, keep-alive stdlib client for ``repro serve``.

Backs the ``repro submit`` CLI, the serve test/smoke harnesses, and the
chaos harness.  Everything rides on :mod:`http.client` with one
persistent connection per thread; errors surface as
:class:`ServeError` carrying the HTTP status, the server's
``Retry-After`` hint, and whether the failure was transport-level.

Retries are **safe by construction** and **opt-in** via
:class:`RetryPolicy`:

* ``analyze``/``simulate`` are pure functions of their canonical body;
  the server dedups them by sha256 request digest, so a replayed
  request coalesces with the in-flight computation and can never
  compute twice or diverge (byte-identical responses for all waiters).
* ``explore`` submissions carry a client-generated ``idempotency_key``;
  the server binds the key to the first accepted job, so a retried
  submission returns the same job instead of launching a duplicate
  exploration.
* ``cancel`` and every ``GET`` are idempotent by nature.

Retryable: HTTP 429 and 503 (honoring ``Retry-After`` as the *floor*
of the jittered exponential backoff) and transport failures (connection
refused/reset, timeouts, mid-response disconnects).  Never retried:
400, 404, 500, 504 — those are answers, not interference.

When tracing is enabled, every attempt opens a ``client.request`` span
and ships its context in a ``traceparent`` header, so the server-side
spans join the caller's trace; the trace ID the server answered under
(``X-Repro-Trace``) is kept on :attr:`ServeClient.last_trace_id`.
"""

import http.client
import json
import random
import socket
import threading
import time
import uuid
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.model.serialization import SystemBundle
from repro.obs.metrics import metrics
from repro.serve.admission import (
    CLASS_HEADER,
    CLIENT_HEADER,
    DEADLINE_HEADER,
    parse_class,
    parse_client_id,
)
from repro.obs.trace import (
    RESPONSE_TRACE_HEADER,
    TRACEPARENT_HEADER,
    capture_context,
    span as trace_span,
    to_traceparent,
)

__all__ = ["ServeClient", "ServeError", "RetryPolicy", "DeadlineExhausted"]

SystemSpec = Union[str, Dict[str, Any], SystemBundle]


class ServeError(ReproError):
    """An HTTP- or transport-level failure reported by the client."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after: Optional[int] = None,
        error_type: Optional[str] = None,
        transport: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.error_type = error_type
        #: Whether the failure happened below HTTP (connect, reset,
        #: timeout, mid-response disconnect) — always retryable for this
        #: API because every endpoint is idempotent (see module docs).
        self.transport = transport


class DeadlineExhausted(ServeError):
    """The caller's remaining budget cannot cover another attempt.

    Raised *before* sleeping when a retry backoff (including a server
    ``Retry-After`` floor) would overshoot the deadline the caller gave
    this request — failing fast beats blocking past a budget nobody can
    extend.  Never retried (``transport=False``, no retryable status).
    """


class RetryPolicy:
    """Jittered exponential backoff with ``Retry-After`` as the floor.

    ``delay(attempt)`` grows ``backoff_base * 2**attempt`` up to
    ``backoff_cap``, multiplied by ``1 + U(0, jitter)`` so synchronized
    clients spread out.  A server-provided ``Retry-After`` can only
    *raise* the delay — the server's estimate is honest (EWMA of work
    durations times backlog) and sleeping less would just earn another
    429.  ``seed`` pins the jitter stream for reproducible harnesses.
    """

    def __init__(
        self,
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 10.0,
        jitter: float = 0.5,
        seed: Optional[int] = None,
    ):
        if retries < 0:
            raise ReproError("retries must be >= 0")
        if backoff_base < 0 or backoff_cap < 0 or jitter < 0:
            raise ReproError("backoff parameters must be >= 0")
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def should_retry(self, error: ServeError) -> bool:
        """Whether this failure class is worth another attempt."""
        return error.transport or error.status in (429, 503)

    def delay(self, attempt: int, retry_after: Optional[int] = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        with self._rng_lock:
            delay = base * (1.0 + self.jitter * self._rng.random())
        if retry_after:
            delay = max(delay, float(retry_after))
        return delay


def _system_payload(system: SystemSpec) -> Union[str, Dict[str, Any]]:
    if isinstance(system, SystemBundle):
        from repro.serve.encoding import bundle_to_payload

        return bundle_to_payload(system)
    return system


class _TransportFailure(Exception):
    """Internal: an attempt died below HTTP; carries the cause."""

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


class ServeClient:
    """One server endpoint plus request plumbing.

    The client keeps one persistent connection per thread (keep-alive),
    reconnecting transparently when the server closed an idle one.
    ``retry=None`` (the default) fails fast on the first error —
    harnesses and the CLI opt into a :class:`RetryPolicy` explicitly.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 600.0,
        retry: Optional[RetryPolicy] = None,
        criticality: Optional[str] = None,
        client_id: Optional[str] = None,
    ):
        self.base_url = base_url.rstrip("/")
        #: Criticality class sent as ``X-Repro-Class`` on every request
        #: (``None`` sends no header; the server defaults to standard).
        self.criticality = (
            parse_class(criticality) if criticality is not None else None
        )
        #: Quota identity sent as ``X-Repro-Client`` (``None`` shares
        #: the server's anonymous bucket).
        self.client_id = (
            parse_client_id(client_id) if client_id is not None else None
        )
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", ""):
            raise ReproError(
                f"unsupported scheme {parts.scheme!r} in {base_url!r}"
            )
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self.timeout = timeout
        self.retry = retry
        self._local = threading.local()
        #: Trace ID of the most recent response (``X-Repro-Trace``).
        self.last_trace_id: Optional[str] = None

    # -- connection management -------------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is not None and conn.timeout != timeout:
            self._drop_connection()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=timeout
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._local.conn = None

    def close(self) -> None:
        """Close this thread's persistent connection (if any)."""
        self._drop_connection()

    # -- plumbing --------------------------------------------------------

    def _attempt(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One transport round trip, with transparent stale-connection
        recovery: a request that dies on a *reused* keep-alive connection
        (the server may have closed it while idle) is re-sent once on a
        fresh connection before the failure counts as an attempt.  Safe
        because every endpoint is idempotent (see module docs).
        """
        for fresh in (False, True):
            reused = getattr(self._local, "conn", None) is not None
            conn = self._connection(timeout)
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as error:
                self._drop_connection()
                if reused and not fresh:
                    metrics().counter("client.reconnects").inc()
                    continue
                raise _TransportFailure(error) from error
            resp_headers = {k: v for k, v in resp.getheaders()}
            if resp.will_close:
                self._drop_connection()
            return resp.status, resp_headers, data
        raise _TransportFailure(OSError("unreachable"))  # pragma: no cover

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        deadline_seconds: Optional[float] = None,
    ) -> bytes:
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        timeout = self.timeout if timeout is None else timeout
        # The deadline is an *overall* budget across every retry: each
        # attempt recomputes the remaining slice, ships it as
        # ``X-Repro-Deadline`` (so the server can 504 doomed work at
        # admission), and caps its socket timeout at the slice.
        deadline = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        retry = self.retry
        attempts = 1 + (retry.retries if retry is not None else 0)
        last_error: Optional[ServeError] = None
        for attempt in range(attempts):
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExhausted(
                        f"request budget of {deadline_seconds:g}s exhausted "
                        f"after {attempt} attempt(s)"
                    ) from last_error
            try:
                return self._attempt_with_span(
                    method,
                    path,
                    body,
                    timeout if remaining is None else min(timeout, remaining),
                    attempt,
                    remaining,
                )
            except ServeError as error:
                last_error = error
                if retry is None or not retry.should_retry(error):
                    raise
                if attempt + 1 >= attempts:
                    break
                wait = retry.delay(attempt, error.retry_after)
                if deadline is not None and time.monotonic() + wait > deadline:
                    # Sleeping would outlive the budget (often because the
                    # server's Retry-After floor exceeds what is left):
                    # fail fast with a typed error instead of blocking.
                    left = max(0.0, deadline - time.monotonic())
                    raise DeadlineExhausted(
                        f"server backoff of {wait:.2f}s exceeds the "
                        f"{left:.2f}s of request budget left",
                        status=error.status,
                        retry_after=error.retry_after,
                        error_type=error.error_type,
                    ) from error
                metrics().counter("client.retries").inc()
                time.sleep(wait)
        assert last_error is not None
        raise last_error

    def _attempt_with_span(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout: float,
        attempt: int,
        remaining: Optional[float] = None,
    ) -> bytes:
        with trace_span(
            "client.request", method=method, path=path, attempt=attempt
        ) as sp:
            headers: Dict[str, str] = {}
            if body is not None:
                headers["Content-Type"] = "application/json"
            if self.criticality is not None:
                headers[CLASS_HEADER] = self.criticality
            if self.client_id is not None:
                headers[CLIENT_HEADER] = self.client_id
            if remaining is not None:
                headers[DEADLINE_HEADER] = f"{remaining:.3f}"
            # Captured *inside* the span, so the server parents its
            # serve.request on this client.request, not on our caller.
            traceparent = to_traceparent(capture_context())
            if traceparent is not None:
                headers[TRACEPARENT_HEADER] = traceparent
            try:
                status, resp_headers, data = self._attempt(
                    method, path, body, headers, timeout
                )
            except _TransportFailure as failure:
                cause = failure.cause
                raise ServeError(
                    f"cannot reach {self.base_url}: "
                    f"{type(cause).__name__}: {cause}",
                    transport=True,
                ) from None
            served = resp_headers.get(RESPONSE_TRACE_HEADER)
            if served:
                self.last_trace_id = served
                sp.set_attribute("served_trace_id", served)
            if status >= 400:
                try:
                    detail = json.loads(data).get("error", {})
                except (json.JSONDecodeError, AttributeError):
                    detail = {}
                retry_after = resp_headers.get("Retry-After")
                raise ServeError(
                    detail.get("message") or f"HTTP {status} on {path}",
                    status=status,
                    retry_after=int(retry_after) if retry_after else None,
                    error_type=detail.get("type"),
                )
            return data

    def _request_json(
        self, method, path, payload=None, timeout=None, deadline_seconds=None
    ) -> Dict[str, Any]:
        return json.loads(
            self._request(method, path, payload, timeout, deadline_seconds)
        )

    # -- endpoints -------------------------------------------------------

    def _post(self, path: str, system: SystemSpec, params) -> bytes:
        """POST ``{"system": ..., **params}``; the raw response bytes.

        Reserved kwargs: ``request_timeout`` overrides the client timeout
        for this request only; ``deadline_seconds`` is the overall budget
        across retries, shipped per attempt as ``X-Repro-Deadline`` (a
        header, so it never splits the server's dedup digest).
        """
        timeout = params.pop("request_timeout", None)
        deadline = params.pop("deadline_seconds", None)
        payload = {"system": _system_payload(system), **params}
        return self._request(
            "POST", path, payload, timeout, deadline_seconds=deadline
        )

    def analyze_raw(self, system: SystemSpec, **params) -> bytes:
        """``POST /v1/analyze``, returning the raw response bytes.

        The raw form exists so byte-identity (dedup, facade equality) can
        be asserted without a decode/re-encode round trip.  ``params`` are
        the body fields (e.g. ``AnalyzeRequest.options()``) plus the
        reserved kwargs of :meth:`_post`.
        """
        return self._post("/v1/analyze", system, params)

    def analyze(self, system: SystemSpec, **params) -> Dict[str, Any]:
        """``POST /v1/analyze`` decoded to a dict."""
        return json.loads(self.analyze_raw(system, **params))

    def simulate_raw(self, system: SystemSpec, **params) -> bytes:
        """``POST /v1/simulate``, returning the raw response bytes."""
        return self._post("/v1/simulate", system, params)

    def simulate(self, system: SystemSpec, **params) -> Dict[str, Any]:
        """``POST /v1/simulate`` decoded to a dict."""
        return json.loads(self.simulate_raw(system, **params))

    def explore(self, system: SystemSpec, **params) -> Dict[str, Any]:
        """``POST /v1/explore``; returns the 202 job stub (``id`` etc.).

        An ``idempotency_key`` is generated when the caller does not
        supply one, so retried submissions (explicit or via the retry
        policy) always coalesce onto one server-side job.
        """
        params.setdefault("idempotency_key", f"ck-{uuid.uuid4().hex}")
        return json.loads(self._post("/v1/explore", system, params))

    def shard(self, system: SystemSpec, **params) -> Dict[str, Any]:
        """``POST /v1/shard``; returns the 202 job stub.

        Shard jobs are the island coordinator's durable building blocks
        (``op`` = ``epoch``/``migrate``/``merge`` against a shared
        ``run_id``).  The coordinator supplies deterministic
        ``idempotency_key`` values, so resubmitting a step after a
        client crash coalesces onto the original job; a random key is
        generated only when the caller set none.
        """
        params.setdefault("idempotency_key", f"ck-{uuid.uuid4().hex}")
        return json.loads(self._post("/v1/shard", system, params))

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>``."""
        return self._request_json("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /v1/jobs/<id>/cancel``."""
        return self._request_json("POST", f"/v1/jobs/{job_id}/cancel")

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request_json("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._request_json("GET", "/metrics")

    def wait_job(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_seconds: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll until the job leaves pending/running (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] not in ("pending", "running"):
                return record
            if time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {record['status']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_seconds)
