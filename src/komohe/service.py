"""The heterogeneity service: an HTTP+JSON lookup API over a loaded dataset.

The service loads its Dataset once at startup and never adds to it: the
handler threads read its rows and write only the store's expansion cache,
by single dict operations that need no lock (see CrosswalkStore). Mutation
happens through the CLI before serving; a reload is a restart.

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
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from .dataset import Dataset, translate
from .errors import InvalidMappingError, KomoheError, NotFoundError, QueryParseError
from .queries import ExpansionConfig, expand_query, parse_query, render_query
from .registry import ISO_639_1, numbered_lines
from .store import RelationType, RelevanceRating, parse_relations, split_list

logger = logging.getLogger(__name__)

# A GET body up to this size is read and dropped, so the kept-alive
# connection's next request starts where it should; a larger one closes it.
MAX_GET_BODY = 65536

# one encoder for every response: json.dumps with these options builds a new one per call
_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    data_paths: list[Path] = field(default_factory=list)
    read_timeout: float = 30.0

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

    @classmethod
    def from_file(cls, path: Path) -> "ServiceConfig":
        """Flat key=value config; blank lines and `#` comments ignored, unknown keys rejected."""
        values: dict[str, object] = {}
        text = path.read_text(encoding="utf-8")
        for line_no, line in numbered_lines(raw.strip() for raw in text.splitlines()):
            if "=" not in line:
                raise InvalidMappingError(f"line {line_no}: bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise InvalidMappingError(f"line {line_no}: unknown config key {key!r}")
            name, parse = _CONFIG_KEYS[key]
            try:
                values[name] = parse(value)
            except ValueError:
                bad = f"line {line_no}: bad value for {key!r}: {value!r}"
                raise InvalidMappingError(bad) from None
        return cls(**values)


# config-file key -> (ServiceConfig field, parser of the value text)
_CONFIG_KEYS = {
    "host": ("host", str),
    "port": ("port", int),
    "data": ("data_paths", lambda text: [Path(p) for p in split_list(text)]),
    "read_timeout": ("read_timeout", float),
}


class _BadRequest(KomoheError):
    """A request parameter is missing or unusable; answered with 400."""


def _param(params: dict[str, list[str]], name: str) -> str:
    """The first value of a query parameter, or "" when it is absent."""
    return params.get(name, [""])[0]


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


class KomoheRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests onto the module operations; never raises."""

    # set on the subclass built by build_server
    dataset: Dataset
    protocol_version = "HTTP/1.1"
    # Buffer wfile so the status line, headers and body leave in one send
    # when handle_one_request flushes (error paths that return early are
    # flushed by finish()). TCP_NODELAY keeps a body larger than the buffer
    # from waiting on the client's delayed ACK (Nagle, RFC 896).
    wbufsize = -1
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if "Transfer-Encoding" in self.headers:  # its body cannot be skipped by length
            self.send_error(501, "Transfer-Encoding is not supported")
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, f"bad Content-Length {length!r}")
            return
        if int(length) > MAX_GET_BODY:
            self.send_error(413, f"request body over {MAX_GET_BODY} bytes")
            return
        self.rfile.read(int(length))
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
        self.send_json(payload, status)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """JSON errors with `Connection: close`, for requests no route sees: http.server's
        own (a bad request line, 414, 431, 501) and do_GET's for a body it will not read."""
        self.log_error("code %d, message %s", code, message)
        self.send_json({"v": 1, "error": message or self.responses[code][0]}, code, close=True)

    def send_json(self, payload: dict, status: int, close: bool = False) -> None:
        body = _JSON.encode(payload).encode("utf-8")
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # send_error's 501 to a HEAD has headers only
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
        found = self.dataset.registry.lookup_term(vocab_id, term)  # 404s an unknown vocabulary
        if found is None:
            raise NotFoundError(f"term {term!r} not found in {vocab_id!r}")
        relation, min_rating = _param(params, "relation"), _param(params, "min_rating")
        target = _param(params, "target")
        results = self.dataset.store.mappings_from(
            found.normalized,  # a key, so it is not normalized again
            source_vocab=vocab_id,
            relations=_parse_relations(relation) if relation else None,
            min_rating=_parse_rating(min_rating) if min_rating else None,
            target_vocabs={target} if target else None,
        )
        mappings = [
            {
                "relation": m.relation.symbol,
                "target_vocab": cw.target_vocab if m.target else None,
                "target_terms": list(m.target.terms) if m.target else [],
                "rating": m.rating.text or None,
            }
            for cw, m in results
        ]
        return {"v": 1, "mappings": mappings}, 200

    def handle_expand(self, params: dict[str, list[str]]) -> tuple[dict, int]:
        query, relation_arg, vocab_arg, max_arg = (
            _param(params, key) for key in ("q", "relations", "vocabs", "max")
        )
        if not query.strip():
            raise _BadRequest("missing query parameter q")
        relations = frozenset(_parse_relations(relation_arg)) if relation_arg else ExpansionConfig.relations
        vocabs = frozenset(split_list(vocab_arg)) if vocab_arg else None
        max_terms = ExpansionConfig.max_terms_per_leaf
        if max_arg:
            try:
                max_terms = int(max_arg)
            except ValueError:
                raise _BadRequest(f"bad max value {max_arg!r}")
        config = ExpansionConfig(
            relations=relations,
            target_vocabs=vocabs,
            max_terms_per_leaf=max_terms,
        )
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
                            "relation": a.relation.symbol,
                            "rating": a.rating.text or None,
                        }
                        for a in entry.additions
                    ],
                }
                for entry in trace
            ],
        }, 200

    def handle_translate(self, params: dict[str, list[str]]) -> tuple[dict, int]:
        term, to_lang = _param(params, "term"), _param(params, "to_lang")
        from_lang = _param(params, "from_lang") or None
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
                {"term": c.term, "vocab": c.vocab, "rating": c.rating.text or None}
                for c in candidates
            ],
        }, 200

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # the line is formatted only when DEBUG is on
        logger.debug("%s - " + format, self.address_string(), *args)


def build_server(dataset: Dataset, config: ServiceConfig) -> ThreadingHTTPServer:
    """Create a ready-to-run server bound to config.host:config.port."""
    handler = type(
        "BoundHandler",
        (KomoheRequestHandler,),
        {
            "dataset": dataset,
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
    started = time.perf_counter()
    dataset = Dataset.load(config.data_paths)
    seconds = time.perf_counter() - started
    crosswalks = dataset.store.crosswalks()
    logger.info(
        "loaded %d vocabularies, %d crosswalks, %d mappings in %.2f s, %d lines rejected",
        len(dataset.registry.vocabularies()),
        len(crosswalks),
        sum(len(cw.mappings) for cw in crosswalks),
        seconds,
        dataset.rejected_lines,
    )
    server = build_server(dataset, config)
    # SIGTERM stops the service the way Ctrl-C (SIGINT) does, until serve returns
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    logger.info("serving on %s:%d", *server.server_address[:2])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("shutting down")
    finally:
        server.server_close()
        if previous is not None:  # None: a handler installed outside Python, not restorable
            signal.signal(signal.SIGTERM, previous)
    return 0
