"""Natural-language archetype creation via a chat-completion API.

Few-shot prompts map an English description to archetype parameter JSON
and to a short identifier.  The transport is injectable so tests replay
recorded responses without any network traffic; live calls need an API key
in the environment.
"""

from __future__ import annotations

import enum
import json
import os
import time
from dataclasses import dataclass, field

from . import prompts
from .archetype import _IDENTIFIER_RE, _JSON_KEYS, Archetype
from .errors import (
    ArchetypeValidationError,
    NLAuthError,
    NLNetworkError,
    NLParseError,
    NLRateLimitError,
    NLValidationError,
)

API_KEY_ENV = "CLUSTERGEN_API_KEY"
_FALLBACK_KEY_ENV = "OPENAI_API_KEY"
_TIMEOUT_S = 30.0  # per request
_ATTEMPTS = 3  # requests per completion, transient failures included
_BACKOFF_S = 0.5  # sleep before the second attempt, doubling after each retry


class TemplateKind(enum.Enum):
    PARAMS = "params"
    IDENTIFIER = "identifier"


_TEMPLATES = {
    TemplateKind.PARAMS: prompts.PARAMS_TEMPLATE,
    TemplateKind.IDENTIFIER: prompts.IDENTIFIER_TEMPLATE,
}


@dataclass
class PromptExchange:
    """Record of one round trip: prompt in, raw text out, parsed result."""

    template_id: TemplateKind
    description: str
    rendered_prompt: str
    raw_response: str = ""
    parsed: object = None
    applied_defaults: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "template_id": self.template_id.value,
            "description": self.description,
            "rendered_prompt": self.rendered_prompt,
            "raw_response": self.raw_response,
            "parsed": self.parsed,
            "applied_defaults": self.applied_defaults,
        }


@dataclass(frozen=True)
class ClientConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o"
    api_key: str | None = None  # None -> environment

    def resolve_key(self) -> str:
        key = self.api_key or os.environ.get(API_KEY_ENV) or os.environ.get(_FALLBACK_KEY_ENV)
        if not key:
            raise NLAuthError(
                f"no API key: set {API_KEY_ENV} (or {_FALLBACK_KEY_ENV}) or pass api_key"
            )
        return key


def render_prompt(kind: TemplateKind, description: str) -> str:
    """Substitute the description into the template's trailing slot."""
    if not description or not description.strip():
        raise ValueError("description must be nonempty")
    return _TEMPLATES[kind].replace("{description}", description)


def _http_transport(url: str, payload: dict, headers: dict, timeout: float):
    # imported here so that the CLI's offline commands never load the HTTP stack
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")


def complete(prompt: str, config: ClientConfig | None = None, transport=None) -> str:
    """Send one chat-completion request and return the assistant text.

    Transient failures (429 and 5xx, network errors) retry with doubling
    backoff, _BACKOFF_S then 2*_BACKOFF_S, up to _ATTEMPTS attempts; the
    key is checked before any traffic.
    """
    config = config or ClientConfig()
    key = config.resolve_key()
    transport = transport or _http_transport
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": config.model,
        "temperature": 0,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Content-Type": "application/json", "Authorization": f"Bearer {key}"}
    retry_trace: list[str] = []
    for attempt in range(_ATTEMPTS):
        if attempt:
            time.sleep(_BACKOFF_S * 2 ** (attempt - 1))
        try:
            status, body = transport(url, payload, headers, _TIMEOUT_S)
        except OSError as exc:
            retry_trace.append(f"attempt {attempt + 1}: network error: {exc}")
            continue
        if status == 429:
            retry_trace.append(f"attempt {attempt + 1}: HTTP 429")
            continue
        if status >= 500:
            retry_trace.append(f"attempt {attempt + 1}: HTTP {status}")
            continue
        if status != 200:
            raise NLNetworkError(f"API returned HTTP {status}: {body[:500]}")
        try:
            parsed = json.loads(body)
            return parsed["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise NLParseError(f"malformed API response: {exc}", body)
    if retry_trace and retry_trace[-1].endswith("HTTP 429"):
        raise NLRateLimitError(f"rate-limited on all {_ATTEMPTS} attempts", retry_trace)
    raise NLNetworkError(f"transport failed on all {_ATTEMPTS} attempts: {retry_trace}")


def _first_json_object(raw: str) -> dict:
    """Decode the first "{" of `raw` at which a JSON object starts; text around it is ignored."""
    decoder = json.JSONDecoder()
    start = raw.find("{")
    while start != -1:
        try:
            return decoder.raw_decode(raw, start)[0]
        except json.JSONDecodeError:
            start = raw.find("{", start + 1)
    raise NLParseError("no JSON object found in response", raw)


def parse_archetype_json(raw: str, defaults: dict | None = None) -> tuple[Archetype, list[str]]:
    """Parse a response into a validated archetype.

    Unknown keys are rejected; missing keys fill from `defaults` first and
    the archetype defaults after that.  Returns the archetype plus the
    list of filled-in field names.
    """
    data = _first_json_object(raw)
    merged = dict(defaults or {})
    merged.update(data)
    optional = {"distribution_proportions"}
    applied = sorted((set(_JSON_KEYS) | set(defaults or {})) - set(data) - optional)
    try:
        result = Archetype.from_dict(merged)
    except ArchetypeValidationError as exc:
        raise NLValidationError(exc.violations, raw) from exc
    except TypeError as exc:
        raise NLValidationError([str(exc)], raw) from exc
    return result, applied


def parse_identifier(raw: str) -> str:
    """A trimmed single token obeying identifier rules."""
    token = raw.strip()
    if not _IDENTIFIER_RE.match(token):
        raise NLParseError(f"response is not a valid identifier: {token!r}", raw)
    return token


def describe_to_archetype(
    description: str,
    config: ClientConfig | None = None,
    transport=None,
    log_path=None,
) -> tuple[Archetype, list[PromptExchange]]:
    """Full NL workflow: description -> named, validated archetype.

    The identifier prompt supplies the archetype name; the params prompt
    supplies everything else (a name in the params JSON wins if present).
    """
    exchanges = []

    ident_exchange = PromptExchange(
        TemplateKind.IDENTIFIER,
        description,
        render_prompt(TemplateKind.IDENTIFIER, description),
    )
    ident_exchange.raw_response = complete(ident_exchange.rendered_prompt, config, transport)
    ident_exchange.parsed = parse_identifier(ident_exchange.raw_response)
    exchanges.append(ident_exchange)

    params_exchange = PromptExchange(
        TemplateKind.PARAMS,
        description,
        render_prompt(TemplateKind.PARAMS, description),
    )
    params_exchange.raw_response = complete(params_exchange.rendered_prompt, config, transport)
    result, applied = parse_archetype_json(
        params_exchange.raw_response, defaults={"name": ident_exchange.parsed}
    )
    params_exchange.parsed = result.to_dict()
    params_exchange.applied_defaults = applied
    exchanges.append(params_exchange)

    if log_path is not None:
        with open(log_path, "a", encoding="utf-8") as fh:
            for exchange in exchanges:
                fh.write(json.dumps(exchange.to_dict()) + "\n")
    return result, exchanges
