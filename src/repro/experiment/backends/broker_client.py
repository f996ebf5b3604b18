"""The HTTP transport: ``BrokerClient``, and the backend that opens one.

:class:`BrokerClient` is a small stdlib JSON client for the endpoints of
:mod:`repro.experiment.broker`; it is shared by the submitting
:class:`BrokerBackend` here and by broker-mode workers
(``python -m repro.experiment.worker --broker <url>``).  It holds one
keep-alive :class:`http.client.HTTPConnection` per thread — a queue
conversation is thousands of small requests to one host, and paying TCP
setup per request was the dominant slice of the broker's per-task
overhead — and sends the shared-secret ``Authorization`` header when
``REPRO_BROKER_TOKEN`` is set.

:class:`BrokerBackend` is
:class:`~repro.experiment.backends.queue_common.QueueBackend` over that
client: same task/claim/result envelopes, leases, retry budgets (the
broker enforces each envelope's own) and auto-scaled local drainers as
the shared-directory queue — but the only thing submitter and workers share
is a URL (and, beyond a trusted network, a token).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import urllib.parse
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

from repro.experiment.backends.base import register_backend
from repro.experiment.backends.queue_common import (
    BROKER_TOKEN_ENV_VAR,
    BROKER_URL_ENV_VAR,
    QueueBackend,
    default_broker_token,
)

__all__ = ["BrokerAuthError", "BrokerBackend", "BrokerClient", "BrokerUnavailable"]


class BrokerUnavailable(ConnectionError):
    """The broker did not answer (connection refused, timeout, 5xx)."""


class BrokerAuthError(PermissionError):
    """The broker refused the request's token (401).

    Deliberately **not** a :class:`ConnectionError` subclass: retry
    loops treat :class:`BrokerUnavailable` as transient and keep
    polling, but a rejected token never heals by waiting — workers and
    submitters must fail fast with the fix (export the matching
    ``REPRO_BROKER_TOKEN``) instead of spinning against a 401.
    """


class BrokerClient:
    """HTTP transport: the broker holds the queue and sweeps the leases
    (JSON over HTTP to one broker URL, stdlib only).

    Connections are keep-alive and **per-thread** (a worker's heartbeat
    thread and main loop must not interleave on one socket), rebuilt
    transparently when the server drops one — safe to retry because
    every endpoint is idempotent or ack-based.

    Args:
        url: the broker, e.g. ``http://127.0.0.1:8123``.
        timeout_s: per-request socket timeout.
        token: shared secret sent as ``Authorization: Bearer <token>``;
            defaults to ``REPRO_BROKER_TOKEN`` (``None`` sends nothing).
        match: id prefix the worker verbs claim under; the submitter
            verbs are addressed per call.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 10.0,
        token: str | None = None,
        match: str = "",
    ) -> None:
        self.url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"broker url must be http://host[:port], got {url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self.timeout_s = timeout_s
        self.token = token if token is not None else default_broker_token()
        self.match = match
        self.worker_id = f"{socket.gethostname()}-{os.getpid()}"
        self._local = threading.local()

    # -------------------------------------------------------------- transport
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            connection.connect()
            # Nagle + delayed ACK costs ~40 ms per small keep-alive
            # round trip — the exact overhead connection reuse exists
            # to remove.  The broker disables it server-side too.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def close(self) -> None:
        """Close this thread's keep-alive connection (idempotent).

        Connections are per-thread, so each thread that made a request
        closes its own — ``with BrokerClient(...) as client:`` does it
        for the thread that opened the client.
        """
        self._drop_connection()

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(self, path: str, payload: Mapping[str, Any] | None) -> dict:
        method = "GET" if payload is None else "POST"
        body = (
            None if payload is None else json.dumps(payload).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        # One transparent retry on a fresh connection: a keep-alive
        # socket the server idled out surfaces as a send/read failure on
        # the *next* request, which is indistinguishable from a real
        # outage until a clean connection answers.
        for attempt in (0, 1):
            try:
                connection = self._connection()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()  # drain fully: keeps the socket reusable
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                if attempt:
                    raise BrokerUnavailable(
                        f"broker {self.url} unreachable on {path}: {exc}"
                    ) from exc
                continue
            detail = raw.decode("utf-8", "replace")[:500]
            if response.status == 401:
                # A refused token never heals: nothing to keep alive for.
                self._drop_connection()
                raise BrokerAuthError(
                    f"broker {self.url} refused {path}: {detail}"
                )
            if response.status != 200:
                raise BrokerUnavailable(
                    f"broker {self.url} answered {response.status} on "
                    f"{path}: {detail}"
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                self._drop_connection()
                raise BrokerUnavailable(
                    f"broker {self.url} sent a non-JSON reply on {path}: "
                    f"{detail}"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    # One method per endpoint; see the broker module docstring.
    # ------------------------------------------------------------ worker half
    def claim(self) -> tuple[dict[str, Any], str] | None:
        task = self._request(
            "/claim", {"match": self.match, "worker": self.worker_id}
        )["task"]
        return None if task is None else (task, str(task["id"]))

    def heartbeat(self, token: str) -> None:
        try:
            self._request("/heartbeat", {"id": token})
        except BrokerUnavailable:
            pass  # the next beat (or the result POST) will retry

    def complete(self, token: str, outcome: Mapping[str, Any]) -> None:
        self._request("/result", dict(outcome))

    def recover(self) -> int:
        return 0  # server-side: every broker request sweeps expired leases

    # --------------------------------------------------------- submitter half
    def submit(self, tasks: Sequence[Mapping[str, Any]]) -> int:
        return int(self._request("/submit", {"tasks": list(tasks)})["accepted"])

    def collect(self, match: str, ack: Sequence[str] = ()) -> dict[str, Any]:
        return self._request("/collect", {"match": match, "ack": list(ack)})

    def cancel(self, ids: Sequence[str]) -> int:
        return int(self._request("/cancel", {"ids": list(ids)})["cancelled"])

    def stats(self) -> dict[str, Any]:
        return self._request("/stats", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BrokerClient({self.url!r}, match={self.match!r})"


class BrokerBackend(QueueBackend):
    """:class:`QueueBackend` over an HTTP broker instead of a shared dir.

    Args:
        url: the broker.  ``None`` honors ``REPRO_BROKER_URL``; with
            neither set, a private in-process broker is started for the
            duration of each :meth:`run` (local fan-out with zero
            deployment — and what ``REPRO_BATCH_BACKEND=broker`` gives
            CI).
        workers: as in :class:`QueueBackend`; ``0`` (external fleet)
            requires an explicit or environment-provided ``url``, since
            a private broker nobody else can discover would hang until
            timeout.
        cache_dir, poll_interval_s, timeout_s, lease_s, max_attempts:
            see :class:`QueueBackend`.
        token: shared broker secret; defaults to ``REPRO_BROKER_TOKEN``.
    """

    name = "broker"

    def __init__(
        self,
        url: str | None = None,
        workers: int | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        poll_interval_s: float = 0.05,
        timeout_s: float = 600.0,
        lease_s: float | None = None,
        max_attempts: int | None = None,
        token: str | None = None,
    ) -> None:
        super().__init__(
            workers, cache_dir, poll_interval_s, timeout_s, lease_s, max_attempts
        )
        if workers == 0 and url is None and not os.environ.get(BROKER_URL_ENV_VAR):
            raise ValueError(
                "workers=0 (external drain) requires a broker url the "
                "external workers can reach; a private per-run broker "
                "would hang until timeout"
            )
        self.url = url
        self.token = token

    @contextmanager
    def _open(self) -> Iterator[tuple[BrokerClient, list[str], dict[str, str]]]:
        url = self.url or os.environ.get(BROKER_URL_ENV_VAR)
        token = self.token if self.token is not None else default_broker_token()
        server = None
        if not url:
            # Private per-run broker: serve this submission and disappear.
            from repro.experiment.broker import start_broker

            server = start_broker(token=token)
            url = server.url
        client = BrokerClient(url, token=token)
        try:
            # The drainers must send the token this submitter sends, also
            # when it came in as an argument and the variable is unset.
            yield client, ["--broker", url], (
                {BROKER_TOKEN_ENV_VAR: token} if token else {}
            )
        finally:
            client.close()
            if server is not None:
                server.shutdown()
                server.server_close()


register_backend(
    BrokerBackend.name, lambda max_workers: BrokerBackend(workers=max_workers)
)
