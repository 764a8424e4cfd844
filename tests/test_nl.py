from pathlib import Path

import json

import pytest

from clustergen import nl
from clustergen.errors import (
    NLAuthError,
    NLParseError,
    NLRateLimitError,
    NLValidationError,
)
from clustergen.nl import (
    ClientConfig,
    TemplateKind,
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
        prompt = render_prompt(TemplateKind.PARAMS, description)
        assert prompt.endswith(f"Description: {description}\nArchetype JSON:")

    def test_identifier_prompt_ends_with_description(self):
        description = "three spherical clusters"
        prompt = render_prompt(TemplateKind.IDENTIFIER, description)
        assert prompt.endswith(f"Description: {description}\nArchetype identifier:")

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            render_prompt(TemplateKind.PARAMS, "")
        with pytest.raises(ValueError, match="nonempty"):
            render_prompt(TemplateKind.IDENTIFIER, "   ")

    def test_byte_identical_to_vendored_templates(self):
        description = "DESCRIPTION-SENTINEL"
        for kind, fixture in [
            (TemplateKind.PARAMS, "params_template.txt"),
            (TemplateKind.IDENTIFIER, "identifier_template.txt"),
        ]:
            vendored = (FIXTURES / fixture).read_text(encoding="utf-8")
            expected = vendored.replace("{description}", description)
            assert render_prompt(kind, description) == expected


class TestComplete:
    def test_fixture_replay_byte_exact(self, fake_transport_factory):
        transport = fake_transport_factory({"params": "canned { } response", "identifier": "x"})
        config = ClientConfig(api_key="test-key")
        raw = complete(render_prompt(TemplateKind.PARAMS, "two clusters"), config, transport)
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
        raw = complete(render_prompt(TemplateKind.PARAMS, "d"), config, transport)
        assert raw == "recovered"
        assert transport.calls == 2
        assert sleeps == [0.5]


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
            assert exchanges[0].template_id is TemplateKind.IDENTIFIER
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
