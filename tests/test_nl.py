from pathlib import Path

import json

import pytest

from clustergen import nl
from clustergen.errors import (
    NLAuthError,
    NLNetworkError,
    NLParseError,
    NLRateLimitError,
    NLValidationError,
)
from clustergen.nl import (
    ClientConfig,
    complete,
    describe_to_archetype,
    parse_archetype_json,
    parse_identifier,
    render_prompt,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestRenderPrompt:
    def test_params_prompt_ends_with_description(self):
        description = "five oblong clusters in two dimensions"
        prompt = render_prompt("params", description)
        assert prompt.endswith(f"Description: {description}\nArchetype JSON:")

    def test_identifier_prompt_ends_with_description(self):
        description = "three spherical clusters"
        prompt = render_prompt("identifier", description)
        assert prompt.endswith(f"Description: {description}\nArchetype identifier:")

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            render_prompt("params", "")
        with pytest.raises(ValueError, match="nonempty"):
            render_prompt("identifier", "   ")

    def test_byte_identical_to_vendored_templates(self):
        description = "DESCRIPTION-SENTINEL"
        for kind, fixture in [
            ("params", "params_template.txt"),
            ("identifier", "identifier_template.txt"),
        ]:
            vendored = (FIXTURES / fixture).read_text(encoding="utf-8")
            expected = vendored.replace("{description}", description)
            assert render_prompt(kind, description) == expected


class TestComplete:
    def test_fixture_replay_byte_exact(self, fake_transport_factory):
        transport = fake_transport_factory({"params": "canned { } response", "identifier": "x"})
        config = ClientConfig(api_key="test-key")
        raw = complete(render_prompt("params", "two clusters"), config, transport)
        assert raw == "canned { } response"

    def test_missing_key_fails_before_any_call(self, fake_transport_factory, monkeypatch):
        monkeypatch.delenv(nl.API_KEY_ENV, raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        transport = fake_transport_factory({"params": "x", "identifier": "x"})
        with pytest.raises(NLAuthError):
            complete("prompt", ClientConfig(), transport)
        assert transport.calls == 0

    def test_rate_limit_thrice_surfaces_with_trace(self, fake_transport_factory, monkeypatch):
        sleeps = []
        monkeypatch.setattr(nl.time, "sleep", sleeps.append)
        transport = fake_transport_factory(
            {"params": "x", "identifier": "x"}, statuses=[429, 429, 429]
        )
        with pytest.raises(NLRateLimitError) as excinfo:
            complete("prompt", ClientConfig(api_key="k"), transport)
        assert len(excinfo.value.retry_trace) == 3
        assert transport.calls == 3
        assert sleeps == [0.5, 1.0]  # backoff doubles between the three attempts

    def test_transient_failure_then_success(self, fake_transport_factory, monkeypatch):
        sleeps = []
        monkeypatch.setattr(nl.time, "sleep", sleeps.append)
        transport = fake_transport_factory(
            {"params": "recovered", "identifier": "x"}, statuses=[500]
        )
        config = ClientConfig(api_key="k")
        raw = complete(render_prompt("params", "d"), config, transport)
        assert raw == "recovered"
        assert transport.calls == 2
        assert sleeps == [0.5]

    def test_network_error_on_every_attempt(self, monkeypatch):
        sleeps, calls = [], []
        monkeypatch.setattr(nl.time, "sleep", sleeps.append)

        def transport(url, payload, headers, timeout):
            calls.append(url)
            raise ConnectionRefusedError("refused")

        with pytest.raises(NLNetworkError) as excinfo:
            complete("prompt", ClientConfig(api_key="k"), transport)
        assert str(excinfo.value).count("network error: refused") == 3
        assert len(calls) == 3
        assert sleeps == [0.5, 1.0]

    def test_client_error_fails_after_one_call(self, fake_transport_factory, monkeypatch):
        sleeps = []
        monkeypatch.setattr(nl.time, "sleep", sleeps.append)
        transport = fake_transport_factory({"params": "x", "identifier": "x"}, statuses=[401])
        with pytest.raises(NLNetworkError, match="^API returned HTTP 401: "):
            complete("prompt", ClientConfig(api_key="k"), transport)
        assert transport.calls == 1
        assert sleeps == []  # a 4xx other than 429 is not retried

    def test_non_json_body_is_parse_error(self):
        def transport(url, payload, headers, timeout):
            return 200, "<html>not JSON</html>"

        with pytest.raises(NLParseError, match="^malformed API response: ") as excinfo:
            complete("prompt", ClientConfig(api_key="k"), transport)
        assert excinfo.value.raw_response == "<html>not JSON</html>"


class TestHttpTransport:
    """The real transport against canned replies from a localhost server."""

    @staticmethod
    def send(base_url):
        payload = {"messages": [{"role": "user", "content": "prompt"}]}
        headers = {"Content-Type": "application/json"}
        return nl._http_transport(base_url + "/chat/completions", payload, headers, 5.0)

    def test_chat_reply(self, canned_http):
        status, body = self.send(canned_http("chat"))
        assert status == 200
        assert json.loads(body)["choices"][0]["message"]["content"] == "canned"

    def test_server_error_returns_status_and_body(self, canned_http):
        assert self.send(canned_http("503")) == (503, "overloaded")

    def test_non_utf8_body_decodes_with_replacement(self, canned_http):
        status, body = self.send(canned_http("non_utf8"))
        assert status == 200
        assert body == "\ufffd\ufffd not UTF-8 \ufffd("

    def test_malformed_status_line_is_os_error(self, canned_http):
        # an OSError, so that `complete` retries it like a lost connection
        with pytest.raises(OSError, match="^malformed HTTP reply: BadStatusLine"):
            self.send(canned_http("malformed"))

    def test_complete_retries_a_malformed_reply(self, canned_http, monkeypatch):
        monkeypatch.setattr(nl.time, "sleep", lambda seconds: None)
        config = ClientConfig(base_url=canned_http("malformed"), api_key="k")
        with pytest.raises(NLNetworkError) as excinfo:
            complete("prompt", config)
        assert str(excinfo.value).count("network error: malformed HTTP reply") == 3


class TestParseArchetypeJson:
    def test_partial_response_fills_defaults(self):
        raw = (
            'Archetype JSON: {"n_clusters": 5, "dim": 2, "n_samples": 500, '
            '"aspect_ref": 3, "aspect_maxmin": 1.5}'
        )
        result, applied = parse_archetype_json(raw, defaults={"name": "five_oblong_2d"})
        assert result.name == "five_oblong_2d"
        assert result.n_clusters == 5
        assert result.aspect_ref == 3
        assert result.max_overlap == 0.05  # default fills overlap fields
        assert "max_overlap" in applied and "min_overlap" in applied
        assert "n_clusters" not in applied

    def test_code_fence_tolerated(self):
        raw = '```json\n{"n_clusters": 2, "dim": 2, "n_samples": 100}\n```'
        result, _ = parse_archetype_json(raw, defaults={"name": "fenced"})
        assert result.n_clusters == 2

    def test_refusal_is_parse_error(self):
        with pytest.raises(NLParseError) as excinfo:
            parse_archetype_json("Sorry, I can't.", defaults={"name": "x"})
        assert excinfo.value.raw_response == "Sorry, I can't."

    def test_inverted_overlaps_are_validation_error(self):
        raw = '{"n_clusters": 3, "min_overlap": 0.5, "max_overlap": 0.1}'
        with pytest.raises(NLValidationError) as excinfo:
            parse_archetype_json(raw, defaults={"name": "x"})
        assert any("min_overlap" in v for v in excinfo.value.violations)

    def test_fewer_samples_than_clusters_is_validation_error(self):
        raw = '{"n_clusters": 7, "n_samples": 5}'
        with pytest.raises(NLValidationError, match="cannot cover"):
            parse_archetype_json(raw, defaults={"name": "x"})

    def test_unknown_keys_rejected(self):
        raw = '{"n_clusters": 3, "volume": 9}'
        with pytest.raises(NLValidationError, match="unknown"):
            parse_archetype_json(raw, defaults={"name": "x"})

    @pytest.mark.parametrize("field, value, violation", [
        ("n_clusters", "5", "n_clusters must be a positive integer"),
        ("distributions", 3, "distributions must be a nonempty list"),
        ("distribution_proportions", [0.5, "x"], "distribution_proportions must be a list"),
        ("name", 7, "name 7 is not a valid identifier"),
    ])
    def test_junk_typed_params_are_validation_errors(self, field, value, violation):
        # validation turns each into a violation before anything uses its type
        raw = json.dumps({"name": "x", "n_clusters": 3, field: value})
        with pytest.raises(NLValidationError) as excinfo:
            parse_archetype_json(raw)
        assert any(v.startswith(violation) for v in excinfo.value.violations)


# (response text, the object it holds as JSON text, or None when it holds none)
FIRST_OBJECT_CASES = [
    ('{"note": "a } and { inside", "n": 1}', '{"note": "a } and { inside", "n": 1}'),
    ('prose "{" then {"n": 2}', '{"n": 2}'),
    ('{"s": "say \\"}\\" now", "n": 3}', '{"s": "say \\"}\\" now", "n": 3}'),
    ('{not json} {"n": 4}', '{"n": 4}'),
    ('{"outer": oops, "inner": {"n": 5}}', '{"n": 5}'),
    ('{"n": 6', None),
    ('{"a": {"n": 7}', '{"n": 7}'),
    ('{"n": 8,}', None),
    ('{"n": 8,} {"n": 9}', '{"n": 9}'),
    ("{'n': 10}", None),
    ('{"x": NaN}', '{"x": NaN}'),
    ('```json\n{"n": 12}\n```', '{"n": 12}'),
    ('{"a": {"b": {"c": 13}}}', '{"a": {"b": {"c": 13}}}'),
    ('Here: {"n": 14} and {"m": 0}', '{"n": 14}'),
]


@pytest.mark.parametrize("raw, expected", FIRST_OBJECT_CASES)
def test_first_json_object(raw, expected):
    if expected is None:
        with pytest.raises(NLParseError, match="no JSON object"):
            nl._first_json_object(raw)
    else:
        assert json.dumps(nl._first_json_object(raw)) == expected


class TestParseIdentifier:
    def test_accepts_snake_case(self):
        assert parse_identifier("ten_very_different_shapes") == "ten_very_different_shapes"

    def test_rejects_leading_digit(self):
        with pytest.raises(NLParseError):
            parse_identifier("7clusters")

    def test_trims_whitespace(self):
        assert parse_identifier("  five_oblong_2d \n") == "five_oblong_2d"


class TestDescribeToArchetype:
    def test_deterministic_in_fixture_mode(self, nl_fixtures, fake_transport_factory):
        description = "twelve clusters of different distributions"
        recorded = nl_fixtures[description]
        config = ClientConfig(api_key="k")
        results = []
        for _ in range(2):
            transport = fake_transport_factory(
                {"identifier": recorded["identifier"], "params": recorded["params"]}
            )
            result, exchanges = describe_to_archetype(description, config, transport)
            results.append(result)
            assert len(exchanges) == 2
            assert exchanges[0].template_id == "identifier"
            assert exchanges[1].parsed["name"] == recorded["identifier"]
        assert results[0] == results[1]

    def test_result_passes_validation(self, nl_fixtures, fake_transport_factory):
        from clustergen.archetype import validate_archetype

        description = "four clusters in 100D with 100 samples each"
        recorded = nl_fixtures[description]
        transport = fake_transport_factory(
            {"identifier": recorded["identifier"], "params": recorded["params"]}
        )
        result, _ = describe_to_archetype(description, ClientConfig(api_key="k"), transport)
        assert validate_archetype(result) == []

    def test_exchange_log_written(self, nl_fixtures, fake_transport_factory, tmp_path):
        description = "twelve clusters of different distributions"
        recorded = nl_fixtures[description]
        transport = fake_transport_factory(
            {"identifier": recorded["identifier"], "params": recorded["params"]}
        )
        log_path = tmp_path / "exchanges.jsonl"
        describe_to_archetype(
            description, ClientConfig(api_key="k"), transport, log_path=log_path
        )
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        assert entries[0]["template_id"] == "identifier"
        assert entries[1]["raw_response"] == recorded["params"]

    def test_exchange_log_lines_pinned(self, nl_fixtures, fake_transport_factory, tmp_path):
        description = "four clusters in 100D with 100 samples each"
        recorded = nl_fixtures[description]
        transport = fake_transport_factory(
            {"identifier": recorded["identifier"], "params": recorded["params"]}
        )
        log_path = tmp_path / "exchanges.jsonl"
        result, _ = describe_to_archetype(
            description, ClientConfig(api_key="k"), transport, log_path=log_path
        )
        # every field, in this order, with json.dumps' default separators
        expected = [
            {
                "template_id": "identifier",
                "description": description,
                "rendered_prompt": render_prompt("identifier", description),
                "raw_response": recorded["identifier"],
                "parsed": recorded["identifier"],
                "applied_defaults": [],
            },
            {
                "template_id": "params",
                "description": description,
                "rendered_prompt": render_prompt("params", description),
                "raw_response": recorded["params"],
                "parsed": result.to_dict(),
                "applied_defaults": ["name", "scale"],
            },
        ]
        assert log_path.read_text(encoding="utf-8") == "".join(
            json.dumps(entry) + "\n" for entry in expected
        )
