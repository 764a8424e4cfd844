import contextlib
import json
import re
import socket
import threading
from pathlib import Path

import pytest

from clustergen import postprocess
from clustergen.archetype import load_archetypes_jsonl
from clustergen.postprocess import _pin_blas

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_sessionstart(session):
    """One BLAS thread, as every CLI command runs, so the tests check the
    bytes that users get whatever the machine's core count."""
    _pin_blas()


@pytest.fixture()
def set_threads(monkeypatch):
    """Set the thread count of `forward` and `silhouette` (`postprocess._threads`),
    for this test only, whatever the machine's core count."""
    return lambda threads: monkeypatch.setattr(postprocess, "_threads", lambda: threads)


@pytest.fixture(scope="session")
def benchmark_archetypes():
    """The six benchmark archetypes used across placement/overlap tests."""
    return load_archetypes_jsonl(FIXTURES / "benchmark_archetypes.jsonl")


@pytest.fixture(scope="session")
def nl_fixtures():
    with open(FIXTURES / "nl_responses.json", encoding="utf-8") as fh:
        return json.load(fh)


class FakeChatTransport:
    """Replays recorded responses; replies by prompt kind.

    `responses` maps "identifier"/"params" to the raw assistant text.  A
    `statuses` list front-loads HTTP statuses (for fault injection); once
    exhausted, requests succeed.
    """

    def __init__(self, responses, statuses=None):
        self.responses = responses
        self.statuses = list(statuses or [])
        self.calls = 0

    def __call__(self, url, payload, headers, timeout):
        self.calls += 1
        if self.statuses:
            status = self.statuses.pop(0)
            if status != 200:
                return status, json.dumps({"error": {"message": f"injected {status}"}})
        prompt = payload["messages"][0]["content"]
        kind = "identifier" if "Archetype identifier:" in prompt else "params"
        body = {"choices": [{"message": {"content": self.responses[kind]}}]}
        return 200, json.dumps(body)


@pytest.fixture()
def fake_transport_factory():
    return FakeChatTransport


def _read_request(conn: socket.socket) -> None:
    """Read one HTTP request, headers and Content-Length body, off `conn`."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
    while length and len(body) < int(length.group(1)):
        chunk = conn.recv(65536)
        if not chunk:
            return
        body += chunk


@contextlib.contextmanager
def _serving(reply: bytes):
    """A thread on 127.0.0.1 that answers every request with the bytes
    `reply`; yields the base URL of its ephemeral port."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                _read_request(conn)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}/v1"
    finally:
        stop.set()
        thread.join()
        server.close()


def _http_reply(status: str, body: bytes) -> bytes:
    head = f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    return head.encode("ascii") + body


# the raw bytes of each reply a `canned_http` server can give
HTTP_REPLIES = {
    "malformed": b"NOT HTTP AT ALL\r\n\r\n",
    "non_utf8": _http_reply("200 OK", b"\xff\xfe not UTF-8 \xc3\x28"),
    "chat": _http_reply(
        "200 OK", json.dumps({"choices": [{"message": {"content": "canned"}}]}).encode()
    ),
    "503": _http_reply("503 Service Unavailable", b"overloaded"),
}


@pytest.fixture()
def canned_http(monkeypatch):
    """`canned_http(name)` serves `HTTP_REPLIES[name]` on a localhost port for
    the rest of the test and returns its base URL; no other network is used,
    a configured HTTP proxy included."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with contextlib.ExitStack() as stack:
        yield lambda name: stack.enter_context(_serving(HTTP_REPLIES[name]))
