"""The heterogeneity service: an HTTP+JSON lookup API over a loaded dataset.

The service loads its Dataset once at startup and never writes it, so the
handler threads only read. Mutation happens through the CLI before
serving; a reload is a restart.

Endpoints (all GET, JSON responses carry a top-level "v": 1):
    /vocabularies
    /terms/{vocab}/{term}/mappings?relation=&target=&min_rating=
    /expand?q=&relations=&vocabs=&max=
    /translate?term=&from_lang=&to_lang=
"""

from __future__ import annotations

import json
import logging
import math
import signal
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from .dataset import Dataset, translate
from .errors import InvalidMappingError, KomoheError, NotFoundError, QueryParseError
from .queries import ExpansionConfig, expand_query, parse_query, render_query
from .registry import ISO_639_1
from .store import RelationType, RelevanceRating, parse_relations, split_list

logger = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    data_paths: list[Path] = field(default_factory=list)
    read_timeout: float = 30.0
    max_expansion_terms: int = ExpansionConfig.max_terms_per_leaf

    def __post_init__(self) -> None:
        # port 0 asks the OS for an ephemeral port
        if not 0 <= self.port <= 65535:
            raise InvalidMappingError(f"port {self.port} out of range")
        # each connection's socket raises on a negative, NaN or infinite
        # timeout, and 0 makes it non-blocking
        if not 0 < self.read_timeout < math.inf:
            raise InvalidMappingError(
                f"read_timeout {self.read_timeout} must be finite and positive"
            )
        if self.max_expansion_terms < 1:
            raise InvalidMappingError(
                f"max_expansion_terms {self.max_expansion_terms} must be at least 1"
            )

    @classmethod
    def from_file(cls, path: Path) -> "ServiceConfig":
        """Flat key=value config; blank lines and `#` comments ignored, unknown keys rejected."""
        values: dict[str, object] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidMappingError(f"bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise InvalidMappingError(f"unknown config key {key!r}")
            name, parse = _CONFIG_KEYS[key]
            values[name] = parse(value)
        return cls(**values)


# config-file key -> (ServiceConfig field, parser of the value text)
_CONFIG_KEYS = {
    "host": ("host", str),
    "port": ("port", int),
    "data": ("data_paths", lambda text: [Path(p) for p in split_list(text)]),
    "read_timeout": ("read_timeout", float),
    "max_expansion_terms": ("max_expansion_terms", int),
}


class _BadRequest(KomoheError):
    """A request parameter is missing or unusable; answered with 400."""


def _parse_relations(text: str) -> set[RelationType]:
    relations = parse_relations(text)
    if RelationType.NULL in relations:
        raise _BadRequest("relation 0 cannot be requested")
    return relations


def _parse_rating(text: str) -> RelevanceRating:
    rating = RelevanceRating.parse(text)
    if rating is RelevanceRating.UNRATED:
        raise _BadRequest("min_rating must be high, medium, or low")
    return rating


def _rating_json(rating: RelevanceRating) -> str | None:
    return None if rating is RelevanceRating.UNRATED else rating.value


class KomoheRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests onto the module operations; never raises."""

    # both set on the subclass built by build_server
    dataset: Dataset
    max_expansion_terms: int
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            split = urlsplit(self.path)
            segments = [unquote(s) for s in split.path.split("/") if s]
            params = parse_qs(split.query, keep_blank_values=True)
            payload, status = self.route(segments, params)
        except NotFoundError as exc:
            payload, status = {"v": 1, "error": str(exc)}, 404
        except QueryParseError as exc:
            payload, status = {"v": 1, "error": str(exc), "position": exc.position}, 400
        except KomoheError as exc:
            payload, status = {"v": 1, "error": str(exc)}, 400
        except Exception:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error for %s", self.path)
            payload, status = {"v": 1, "error": "internal error"}, 500
        body = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def route(self, segments: list[str], params: dict[str, list[str]]) -> tuple[dict, int]:
        if segments == ["vocabularies"]:
            return self.handle_vocabularies()
        if len(segments) == 4 and segments[0] == "terms" and segments[3] == "mappings":
            return self.handle_mappings(segments[1], segments[2], params)
        if segments == ["expand"]:
            return self.handle_expand(params)
        if segments == ["translate"]:
            return self.handle_translate(params)
        raise NotFoundError(f"no such route: /{'/'.join(segments)}")

    def handle_vocabularies(self) -> tuple[dict, int]:
        registry = self.dataset.registry
        vocabularies = [
            {
                "id": v.id,
                "name": v.name,
                "language": v.language,
                "discipline": v.discipline,
                "term_count": registry.term_count(v.id),
            }
            for v in registry.vocabularies()
        ]
        return {"v": 1, "vocabularies": vocabularies}, 200

    def handle_mappings(
        self, vocab_id: str, term: str, params: dict[str, list[str]]
    ) -> tuple[dict, int]:
        if self.dataset.registry.lookup_term(vocab_id, term) is None:  # 404s an unknown vocabulary
            raise NotFoundError(f"term {term!r} not found in {vocab_id!r}")
        relations = None
        if params.get("relation", [""])[0]:
            relations = _parse_relations(params["relation"][0])
        min_rating = None
        if params.get("min_rating", [""])[0]:
            min_rating = _parse_rating(params["min_rating"][0])
        target = params.get("target", [""])[0] or None
        results = self.dataset.store.mappings_from(
            term,
            source_vocab=vocab_id,
            relations=relations,
            min_rating=min_rating,
            target_vocabs={target} if target else None,
        )
        mappings = [
            {
                "relation": m.relation.value,
                "target_vocab": cw.target_vocab if m.target else None,
                "target_terms": list(m.target.terms) if m.target else [],
                "rating": _rating_json(m.rating),
            }
            for cw, m in results
        ]
        return {"v": 1, "mappings": mappings}, 200

    def handle_expand(self, params: dict[str, list[str]]) -> tuple[dict, int]:
        query = params.get("q", [""])[0]
        if not query.strip():
            raise _BadRequest("missing query parameter q")
        relations = frozenset({RelationType.EQ})
        if params.get("relations", [""])[0]:
            relations = frozenset(_parse_relations(params["relations"][0]))
        vocabs = None
        if params.get("vocabs", [""])[0]:
            vocabs = frozenset(split_list(params["vocabs"][0]))
        max_terms = self.max_expansion_terms
        if params.get("max", [""])[0]:
            try:
                max_terms = int(params["max"][0])
            except ValueError:
                raise _BadRequest(f"bad max value {params['max'][0]!r}")
        try:
            config = ExpansionConfig(
                relations=relations,
                target_vocabs=vocabs,
                max_terms_per_leaf=max_terms,
            )
        except ValueError as exc:
            raise _BadRequest(str(exc))
        ast = parse_query(query)
        expanded, trace = expand_query(ast, self.dataset.store, config)
        return {
            "v": 1,
            "original": render_query(ast),
            "expanded": render_query(expanded),
            "trace": [
                {
                    "original": entry.original,
                    "additions": [
                        {
                            "term": a.term,
                            "source_vocab": a.source_vocab,
                            "target_vocab": a.target_vocab,
                            "relation": a.relation.value,
                            "rating": _rating_json(a.rating),
                        }
                        for a in entry.additions
                    ],
                }
                for entry in trace
            ],
        }, 200

    def handle_translate(self, params: dict[str, list[str]]) -> tuple[dict, int]:
        term = params.get("term", [""])[0]
        to_lang = params.get("to_lang", [""])[0]
        from_lang = params.get("from_lang", [""])[0] or None
        if not term.strip():
            raise _BadRequest("missing query parameter term")
        if not to_lang:
            raise _BadRequest("missing query parameter to_lang")
        if to_lang not in ISO_639_1 or (from_lang and from_lang not in ISO_639_1):
            raise _BadRequest("language codes must be two-letter ISO 639-1")
        candidates = translate(self.dataset, term, to_lang, from_lang)
        return {
            "v": 1,
            "candidates": [
                {"term": c.term, "vocab": c.vocab, "rating": _rating_json(c.rating)}
                for c in candidates
            ],
        }, 200

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


def build_server(dataset: Dataset, config: ServiceConfig) -> ThreadingHTTPServer:
    """Create a ready-to-run server bound to config.host:config.port."""
    handler = type(
        "BoundHandler",
        (KomoheRequestHandler,),
        {
            "dataset": dataset,
            "max_expansion_terms": config.max_expansion_terms,
            "timeout": config.read_timeout,
        },
    )
    server = ThreadingHTTPServer((config.host, config.port), handler)
    server.daemon_threads = True
    return server


def serve(config: ServiceConfig) -> int:
    """Load data, start the service, and block until SIGINT/SIGTERM."""
    if not config.data_paths:
        raise KomoheError("service needs at least one data path")
    dataset = Dataset.load(config.data_paths)
    crosswalks = dataset.store.crosswalks()
    logger.info(
        "loaded %d vocabularies, %d crosswalks, %d mappings",
        len(dataset.registry.vocabularies()),
        len(crosswalks),
        sum(len(cw.mappings) for cw in crosswalks),
    )
    server = build_server(dataset, config)
    # SIGTERM stops the service the way Ctrl-C (SIGINT) does
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    logger.info("serving on %s:%d", *server.server_address[:2])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("shutting down")
    finally:
        server.server_close()
    return 0
