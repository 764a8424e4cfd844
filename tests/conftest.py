import json
from pathlib import Path

import pytest

from clustergen.archetype import load_archetypes_jsonl
from clustergen.postprocess import _pin_blas

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_sessionstart(session):
    """One BLAS thread, as every CLI command runs, so the tests check the
    bytes that users get whatever the machine's core count."""
    _pin_blas()


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
