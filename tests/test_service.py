import gc
import json
import logging
import random
import re
import signal
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
import weakref
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from komohe import service
from komohe.errors import (
    ConflictError,
    FormatError,
    InvalidMappingError,
    KomoheError,
    NotFoundError,
)
from komohe.queries import MAX_QUERY_LEAVES, parse_query, render_query
from komohe.registry import Vocabulary, VocabularyRegistry, normalize_term
from komohe.service import MAX_GET_BODY, Dataset, ServiceConfig, build_server, translate
from komohe.store import CrosswalkStore, RelationType, RelevanceRating

from conftest import CORPUS_TSV, SIXROW_TSV
from oracles import brute_force_translate


class TestTranslate:
    def test_basic(self, bilingual):
        candidates = translate(bilingual, "Soziologie", "en")
        assert [(c.term, c.vocab) for c in candidates] == [
            ("sociology", "elsst"),
            ("social sciences", "cabt"),
            ("sociology", "cabt"),
        ]
        assert candidates[0].rating is RelevanceRating.HIGH
        assert candidates[0].path == "thesoz-elsst"

    def test_no_target_language(self, bilingual):
        with pytest.raises(NotFoundError):
            translate(bilingual, "soziologie", "fr")

    def test_source_language_filter(self, bilingual):
        assert translate(bilingual, "soziologie", "en", source_lang="en") == []
        assert len(translate(bilingual, "soziologie", "en", source_lang="de")) == 3

    def test_unknown_term_is_empty(self, bilingual):
        assert translate(bilingual, "ghost", "en") == []

    def test_tie_goes_to_the_smaller_source_vocabulary(self):
        # crosswalk ids sort the other way: "a-b-z" < "a-z"
        dataset = Dataset.empty()
        for source in ("a-b", "a"):
            dataset.store.add_row(source, "x", RelationType.EQ, "z", ["y"], RelevanceRating.HIGH)
        [candidate] = translate(dataset, "X", "en")
        assert candidate.path == "a-z"

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        registry = VocabularyRegistry()
        languages = {"a": "de", "a-b": "de", "q": "de", "y": "en", "z": "en"}
        for vocab_id, language in languages.items():
            registry.register_vocabulary(Vocabulary(vocab_id, language=language))
        dataset = Dataset(registry, CrosswalkStore(registry))
        vocab_ids = [v.id for v in registry.vocabularies()]
        terms = ["t1", "t2", "t3"]
        relations = [RelationType.EQ, RelationType.EQ, RelationType.ASSOC, RelationType.NULL]
        for _ in range(80):
            source, target = rng.sample(vocab_ids, 2)
            relation = rng.choice(relations)
            size = 0 if relation is RelationType.NULL else rng.choice((1, 1, 2))
            members = rng.sample(terms, size)
            rating = rng.choice(list(RelevanceRating))
            try:
                dataset.store.add_row(source, rng.choice(terms), relation, target, members, rating)
            except ConflictError:
                continue
        crosswalks = dataset.store.crosswalks()
        for term in [*terms, "ghost"]:
            for to_lang in ("de", "en"):
                for from_lang in (None, "de", "en"):
                    got = [
                        (c.term, c.vocab, c.rating, c.path)
                        for c in translate(dataset, term.upper(), to_lang, from_lang)
                    ]
                    expected = brute_force_translate(registry, crosswalks, term, to_lang, from_lang)
                    assert got == expected


class TestDatasetLoad:
    def test_load_directory(self, tmp_path):
        (tmp_path / "a.terms").write_text("#terms swd lang=de\nSoziologie\n")
        (tmp_path / "crosswalks.tsv").write_text(
            "#komohe-tsv v1\nswd\tsoziologie\t=\tlcsh\tsociology\thigh\n"
        )
        data = Dataset.load([tmp_path])
        assert data.registry.vocabulary("swd").language == "de"
        assert len(data.store.mappings_from("soziologie")) == 1

    def test_terms_metadata_wins_over_autoregistration(self, tmp_path):
        # crosswalk auto-registers swd as english unless the terms file loads first
        (tmp_path / "z.terms").write_text("#terms swd lang=de\nSoziologie\n")
        (tmp_path / "crosswalks.tsv").write_text(
            "#komohe-tsv v1\nswd\tsoziologie\t=\tlcsh\tsociology\thigh\n"
        )
        data = Dataset.load([tmp_path])
        assert data.registry.vocabulary("swd").language == "de"

    def test_directory_ignores_other_files(self, tmp_path):
        (tmp_path / "crosswalks.tsv").write_text(
            "#komohe-tsv v1\nswd\tsoziologie\t=\tlcsh\tsociology\thigh\n"
        )
        (tmp_path / "corpus.tsv").write_text(CORPUS_TSV)
        (tmp_path / "notes.txt").write_text("not komohe data\n")
        data = Dataset.load([tmp_path])
        assert len(data.store.mappings_from("soziologie")) == 1
        # an explicitly named file loads whatever its name
        extra = tmp_path / "extra.tsv"
        extra.write_text("#komohe-tsv v1\nswd\tbildung\t=\tlcsh\teducation\thigh\n")
        assert len(Dataset.load([extra]).store.mappings_from("bildung")) == 1

    def test_explicit_term_list_loads_before_any_crosswalk_file(self, tmp_path):
        terms = tmp_path / "swd.terms"
        terms.write_text("#terms swd lang=de\nSoziologie\nBildung\n")
        tsv = tmp_path / "rows.tsv"
        tsv.write_text("#komohe-tsv v1\nswd\tsoziologie\t=\tlcsh\tsociology\thigh\n")
        data = Dataset.load([tsv, terms])
        assert data.registry.vocabulary("swd").language == "de"
        assert [t.display for t in data.registry.terms("swd")] == ["Bildung", "Soziologie"]
        assert len(data.store.mappings_from("soziologie")) == 1

    def test_rejected_lines_get_one_summary_per_file(self, tmp_path, caplog):
        bad = "".join(f"a\tx{i}\t?\tb\ty\thigh\n" for i in range(50))
        (tmp_path / "crosswalks.tsv").write_text("#komohe-tsv v1\n" + bad)
        with caplog.at_level(logging.WARNING, logger="komohe"):
            Dataset.load([tmp_path])
        assert 1 <= len(caplog.records) <= 6
        assert "50 lines rejected" in caplog.text
        assert "crosswalks.tsv:6:" in caplog.text  # the first five: lines 2 to 6
        assert "crosswalks.tsv:7:" not in caplog.text

    def test_serve_logs_load_seconds_and_rejected_lines(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "crosswalks.tsv").write_text(
            "#komohe-tsv v1\na\tx\t=\tb\ty\thigh\na\tx\t?\tb\ty\thigh\na\tx\t=\tb\ty\thigh\n"
        )

        class StoppedServer:
            server_address = ("127.0.0.1", 8080)

            def serve_forever(self):
                raise KeyboardInterrupt

            def server_close(self):
                pass

        monkeypatch.setattr(service, "build_server", lambda dataset, config: StoppedServer())
        monkeypatch.setattr(service.signal, "signal", lambda *args: None)
        with caplog.at_level(logging.INFO, logger="komohe"):
            assert service.serve(ServiceConfig(data_paths=[tmp_path])) == 0
        loaded = r"loaded 2 vocabularies, 1 crosswalks, 1 mappings in \d+\.\d\d s, 2 lines rejected"
        assert re.search(loaded, caplog.text)
        assert "serving on 127.0.0.1:8080" in caplog.text

    def test_serve_puts_the_sigterm_handler_back(self, tmp_path, monkeypatch):
        (tmp_path / "crosswalks.tsv").write_text("#komohe-tsv v1\na\tx\t=\tb\ty\thigh\n")

        class StoppedServer:
            server_address = ("127.0.0.1", 8080)

            def serve_forever(self):
                raise KeyboardInterrupt

            def server_close(self):
                pass

        monkeypatch.setattr(service, "build_server", lambda dataset, config: StoppedServer())
        before = signal.getsignal(signal.SIGTERM)
        try:
            assert service.serve(ServiceConfig(data_paths=[tmp_path])) == 0
            assert signal.getsignal(signal.SIGTERM) is before
        finally:
            signal.signal(signal.SIGTERM, before)


class TestDatasetLoadAndTheCollector:
    TSV = "#komohe-tsv v1\nswd\tsoziologie\t=\tlcsh\tsociology\thigh\n"

    @pytest.fixture(autouse=True)
    def gc_back_on(self):
        yield
        gc.enable()

    @pytest.fixture
    def datadir(self, tmp_path):
        (tmp_path / "crosswalks.tsv").write_text(self.TSV)
        return tmp_path

    def test_enabled_stays_enabled(self, datadir):
        gc.enable()
        Dataset.load([datadir])
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, datadir):
        gc.disable()
        Dataset.load([datadir])
        assert not gc.isenabled()

    def test_enabled_again_and_nothing_frozen_when_a_term_list_fails(self, datadir):
        (datadir / "a.terms").write_text("#not-terms swd\nSoziologie\n")
        gc.enable()
        with pytest.raises(FormatError):
            Dataset.load([datadir])
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_loaded_store_is_frozen_out_of_the_collector(self, datadir):
        data = Dataset.load([datadir])
        assert all(obj is not data.store for obj in gc.get_objects())
        assert gc.get_freeze_count() > 0

    def test_dropped_dataset_is_freed_without_a_collection(self, datadir):
        data = Dataset.load([datadir])
        store = weakref.ref(data.store)
        del data
        assert store() is None


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 8080

    def test_serve_needs_a_data_path(self):
        with pytest.raises(KomoheError, match="^service needs at least one data path$"):
            service.serve(ServiceConfig())

    def test_port_range(self):
        with pytest.raises(InvalidMappingError):
            ServiceConfig(port=-1)
        with pytest.raises(InvalidMappingError):
            ServiceConfig(port=70000)
        ServiceConfig(port=0)  # ephemeral bind is allowed

    def test_from_file(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text(
            "# service settings\n"
            "host = 0.0.0.0\n"
            "port = 9090\n"
            "data = /srv/komohe,/srv/extra\n"
            "max_expansion_terms = 8\n"
        )
        config = ServiceConfig.from_file(path)
        assert config.host == "0.0.0.0"
        assert config.port == 9090
        assert config.data_paths == [Path("/srv/komohe"), Path("/srv/extra")]
        assert config.max_expansion_terms == 8

    def test_from_file_strips_data_paths(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text("data = /srv/komohe, /srv/extra ,\n")
        assert ServiceConfig.from_file(path).data_paths == [Path("/srv/komohe"), Path("/srv/extra")]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("read_timeout", -1.0),
            ("read_timeout", 0.0),
            ("read_timeout", float("inf")),
            ("read_timeout", float("nan")),
            ("max_expansion_terms", 0),
            ("max_expansion_terms", -3),
        ],
    )
    def test_values_it_cannot_serve_with(self, tmp_path, field, value):
        with pytest.raises(InvalidMappingError, match=field):
            ServiceConfig(**{field: value})
        path = tmp_path / "service.conf"
        path.write_text(f"{field} = {value}\n")
        with pytest.raises(InvalidMappingError, match=field):
            ServiceConfig.from_file(path)

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text("port = 9090\nmax_expansion_term = 8\n")
        with pytest.raises(InvalidMappingError, match="max_expansion_term"):
            ServiceConfig.from_file(path)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text("host 0.0.0.0\n")
        with pytest.raises(InvalidMappingError):
            ServiceConfig.from_file(path)

    def test_from_file_bad_value_names_key_and_line(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text("host = 127.0.0.1\nport = abc\n")
        with pytest.raises(InvalidMappingError, match="^line 2: bad value for 'port': 'abc'$"):
            ServiceConfig.from_file(path)

    def test_from_file_errors_name_the_line(self, tmp_path):
        path = tmp_path / "service.conf"
        path.write_text("# service\n\nport = 9090\nmax_expansion_term = 8\n")
        with pytest.raises(InvalidMappingError, match="^line 4: unknown config key 'max_expansion_term'$"):
            ServiceConfig.from_file(path)
        path.write_text("port = 9090\n   # note\nhost 0.0.0.0\n")
        with pytest.raises(InvalidMappingError, match="^line 3: bad config line 'host 0.0.0.0'$"):
            ServiceConfig.from_file(path)


# HTTP integration ------------------------------------------------------


def _serve(dataset):
    """Serve dataset on an ephemeral port; yields the base URL, then stops."""
    config = ServiceConfig(host="127.0.0.1", port=0)
    srv = build_server(dataset, config)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def get_error(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


@pytest.fixture(scope="module")
def base_url():
    # the service is read-only, so all endpoint tests can share one instance
    dataset = Dataset.empty()
    assert not dataset.store.import_tsv(SIXROW_TSV).errors
    yield from _serve(dataset)


def _mapping_bodies(rows):
    """The mappings route's body row for each (term, relation, rating) row stored from A to B."""
    dataset = Dataset.empty()
    for term, relation, rating in rows:
        members = [] if relation is RelationType.NULL else ["x"]
        dataset.store.add_row("A", term, relation, "B", members, rating)
    handler = service.KomoheRequestHandler.__new__(service.KomoheRequestHandler)
    handler.dataset = dataset
    bodies = []
    for term, _, _ in rows:
        payload, status = handler.route(["terms", "A", term, "mappings"], {})
        assert status == 200, term
        [body] = payload["mappings"]
        bodies.append(body)
    return bodies


class TestJsonTables:
    """The bodies write each member's JSON form from the enum, so it must match on every member."""

    def test_relations_match_their_symbols_on_all_5_members(self):
        assert len(RelationType) == 5
        rows = [(f"t{i}", r, RelevanceRating.HIGH) for i, r in enumerate(RelationType)]
        for (_, relation, _), body in zip(rows, _mapping_bodies(rows), strict=True):
            assert body["relation"] == relation.value, relation

    def test_ratings_match_their_values_and_unrated_is_null_on_all_4_members(self):
        assert len(RelevanceRating) == 4
        rows = [(f"t{i}", RelationType.EQ, r) for i, r in enumerate(RelevanceRating)]
        for (_, _, rating), body in zip(rows, _mapping_bodies(rows), strict=True):
            expected = None if rating is RelevanceRating.UNRATED else rating.value
            assert body["rating"] == expected, rating


class TestMappingsRoute:
    def test_a_key_is_not_normalized_and_a_variant_once(self, sixrow, monkeypatch):
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr("komohe.registry.normalize_term", counting)
        monkeypatch.setattr("komohe.store.normalize_term", counting)
        handler = service.KomoheRequestHandler.__new__(service.KomoheRequestHandler)
        handler.dataset = sixrow
        for term, calls in (("hacker", []), (" Hacker ", [" Hacker "])):
            seen.clear()
            payload, status = handler.route(["terms", "A", term, "mappings"], {})
            assert (status, len(payload["mappings"])) == (200, 3), term
            assert seen == calls, term


class TestEndpoints:
    def test_vocabularies(self, base_url):
        status, body = get(base_url, "/vocabularies")
        assert status == 200
        assert body["v"] == 1
        by_id = {v["id"]: v for v in body["vocabularies"]}
        assert set(by_id) == {"A", "B"}
        assert by_id["A"]["term_count"] == 4
        assert set(by_id["A"]) == {"id", "name", "language", "discipline", "term_count"}

    def test_mappings(self, base_url):
        status, body = get(base_url, "/terms/A/hacker/mappings")
        assert status == 200
        assert body["v"] == 1
        assert body["mappings"] == [
            {
                "relation": "=",
                "target_vocab": "B",
                "target_terms": ["hacking"],
                "rating": "high",
            },
            {
                "relation": "^",
                "target_vocab": "B",
                "target_terms": ["computers", "crime"],
                "rating": "medium",
            },
            {
                "relation": "^",
                "target_vocab": "B",
                "target_terms": ["internet", "security"],
                "rating": "medium",
            },
        ]

    def test_mappings_term_with_space(self, base_url):
        status, body = get(base_url, "/terms/A/isdn%20device/mappings")
        assert status == 200
        assert body["mappings"] == [
            {"relation": "0", "target_vocab": None, "target_terms": [], "rating": None}
        ]

    def test_mappings_filters(self, base_url):
        _, body = get(base_url, "/terms/A/hacker/mappings?relation=%3D")
        assert len(body["mappings"]) == 1
        _, body = get(base_url, "/terms/A/hacker/mappings?min_rating=high")
        assert len(body["mappings"]) == 1
        _, body = get(base_url, "/terms/A/hacker/mappings?target=C")
        assert body["mappings"] == []

    def test_mappings_404s(self, base_url):
        status, body = get_error(base_url, "/terms/Z/hacker/mappings")
        assert status == 404 and "error" in body
        status, body = get_error(base_url, "/terms/A/ghost/mappings")
        assert status == 404 and "error" in body

    def test_unknown_route_404(self, base_url):
        status, _ = get_error(base_url, "/nope")
        assert status == 404

    def test_expand(self, base_url):
        status, body = get(base_url, "/expand?q=hacker%20AND%20security")
        assert status == 200
        assert body["original"] == '("hacker" AND "security")'
        assert body["expanded"] == '(("hacker" OR "hacking") AND "security")'
        assert body["trace"] == [
            {
                "original": "hacker",
                "additions": [
                    {
                        "term": "hacking",
                        "source_vocab": "A",
                        "target_vocab": "B",
                        "relation": "=",
                        "rating": "high",
                    }
                ],
            }
        ]

    def test_expand_leaves_out_a_mapped_term_holding_a_quote(self):
        dataset = Dataset.empty()
        for target in ('say "hi"', "y"):
            dataset.store.add_row("a", "x", RelationType.EQ, "b", [target], RelevanceRating.HIGH)
        server = _serve(dataset)
        base = next(server)
        try:
            status, body = get(base, "/expand?q=x")
        finally:
            next(server, None)
        assert status == 200
        assert body["expanded"] == '("x" OR "y")'
        assert render_query(parse_query(body["expanded"])) == body["expanded"]

    def test_expand_relations_param(self, base_url):
        _, body = get(base_url, "/expand?q=hacker&relations=%3D,%5E")
        assert body["expanded"] == (
            '("hacker" OR "hacking" OR ("computers" AND "crime")'
            ' OR ("internet" AND "security"))'
        )

    def test_expand_errors(self, base_url):
        status, body = get_error(base_url, "/expand?q=")
        assert status == 400
        status, body = get_error(base_url, "/expand?q=%22unterminated")
        assert status == 400
        assert body["position"] == 0
        status, body = get_error(base_url, "/expand?q=a&max=0")
        assert status == 400
        status, body = get_error(base_url, "/expand?q=a&relations=0")
        assert status == 400

    def test_translate(self, base_url):
        status, body = get(base_url, "/translate?term=hacker&to_lang=en")
        assert status == 200
        assert body["candidates"] == [{"term": "hacking", "vocab": "B", "rating": "high"}]

    def test_translate_errors(self, base_url):
        status, _ = get_error(base_url, "/translate?term=hacker")
        assert status == 400
        status, _ = get_error(base_url, "/translate?term=hacker&to_lang=zz")
        assert status == 400
        status, _ = get_error(base_url, "/translate?term=hacker&to_lang=fr")
        assert status == 404

    def test_survives_bad_then_good(self, base_url):
        get_error(base_url, "/expand?q=%28%28%28")
        status, _ = get(base_url, "/vocabularies")
        assert status == 200


class TestBadInputIs400:
    def test_deep_query(self, base_url):
        for query in ("%28" * 400 + "a" + "%29" * 400, "NOT%20" * 3000 + "a"):
            status, body = get_error(base_url, f"/expand?q={query}")
            assert status == 400
            assert isinstance(body["position"], int)

    def test_too_many_terms(self, base_url):
        query = "%20OR%20".join(["hacker"] * (MAX_QUERY_LEAVES + 1))
        status, body = get_error(base_url, f"/expand?q={query}")
        assert status == 400
        assert body["position"] == 10 * MAX_QUERY_LEAVES

    def test_null_relation_cannot_be_requested(self, base_url):
        status, body = get_error(base_url, "/terms/A/isdn%20device/mappings?relation=0")
        assert status == 400
        assert "relation 0" in body["error"]

    @pytest.mark.parametrize(
        "path, error",
        [
            ("/expand?q=hacker&max=abc", "bad max value 'abc'"),
            ("/expand?q=hacker&max=0", "max_terms_per_leaf must be positive"),
            ("/translate?to_lang=de", "missing query parameter term"),
            ("/terms/A/hacker/mappings?min_rating=%20", "min_rating must be high, medium, or low"),
            ("/terms/A/hacker/mappings?relation=,", "no relation symbols in ','"),
        ],
    )
    def test_bad_parameter_keeps_the_connection(self, base_url, path, error):
        conn = HTTPConnection(*_address(base_url), timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read()) == {"v": 1, "error": error}
            assert not response.will_close
            conn.request("GET", "/vocabularies")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["v"] == 1
        finally:
            conn.close()


# Response writes -------------------------------------------------------


def _address(base_url: str) -> tuple[str, int]:
    split = urlsplit(base_url)
    return split.hostname, split.port


@pytest.fixture(scope="module")
def wide_url():
    # one term with 400 mappings: its response body is far above the 8 KiB write buffer
    dataset = Dataset.empty()
    for i in range(400):
        target = [f"t{i:03d}"]
        dataset.store.add_row("W", "wide", RelationType.EQ, "X", target, RelevanceRating.HIGH)
    yield from _serve(dataset)


def keepalive_p50_ms(base_url: str, path: str, requests: int = 50) -> tuple[float, int]:
    """Median latency of GETs on one kept-alive connection, and the body size."""
    conn = HTTPConnection(*_address(base_url), timeout=10)
    try:
        conn.connect()
        sock = conn.sock
        latencies = []
        for _ in range(requests):
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            latencies.append((time.perf_counter() - start) * 1000)
            assert response.status == 200
        assert conn.sock is sock  # every request went over the first connection
    finally:
        conn.close()
    return statistics.median(latencies), len(body)


class TestKeepAliveLatency:
    # A response sent as headers then body in two small writes waits ~40 ms
    # for the client's delayed ACK (Nagle's algorithm) on every request.
    def test_small_body(self, base_url):
        p50, size = keepalive_p50_ms(base_url, "/translate?term=hacker&to_lang=en")
        assert size < 200
        assert p50 < 10

    def test_body_larger_than_the_write_buffer(self, wide_url):
        p50, size = keepalive_p50_ms(wide_url, "/terms/W/wide/mappings")
        assert size > 8192
        assert p50 < 10


def raw_reply(base_url: str, request: bytes) -> bytes:
    """Send raw bytes; returns all the server sent until it closed."""
    with socket.create_connection(_address(base_url), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def raw_exchange(base_url: str, request: bytes) -> tuple[str, dict[str, str], bytes]:
    """Send raw bytes, read until the server closes; returns status line, headers, body."""
    head, _, body = raw_reply(base_url, request).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return status_line, headers, body


class TestErrorResponsesAreSent:
    # http.server answers these before do_GET runs and returns without its
    # flush, so the buffered response must still leave when the connection ends
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            # an unescaped space in the path; the line alone, so nothing is left unread
            (b"GET /terms/A/isdn device/mappings HTTP/1.1\r\n", 400),
            (b"POST /vocabularies HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n", 501),
            # exactly the 65,537 bytes the server reads, so nothing is left unread
            (b"GET /" + b"a" * (65537 - 5), 414),
        ],
        ids=["bad-request-line", "post", "request-line-too-long"],
    )
    def test_full_error_response_then_close(self, base_url, request_bytes, status):
        status_line, headers, body = raw_exchange(base_url, request_bytes)
        assert status_line.split()[1] == str(status)
        assert headers["Connection"] == "close"
        assert len(body) == int(headers["Content-Length"]) > 0

    def test_errors_from_do_get_keep_the_connection(self, base_url):
        conn = HTTPConnection(*_address(base_url), timeout=10)
        try:
            conn.connect()
            sock = conn.sock
            for path, status in [("/nope", 404), ("/expand?q=", 400), ("/vocabularies", 200)]:
                conn.request("GET", path)
                response = conn.getresponse()
                assert response.status == status
                assert json.loads(response.read())["v"] == 1
                assert not response.will_close
            assert conn.sock is sock
        finally:
            conn.close()


class TestAccessLog:
    @pytest.mark.parametrize(
        "format, args",
        [
            ('"%s" %s %s', ("GET /x?q=100%25 HTTP/1.1", "200", "-")),
            ("code %d, message %s", (404, "50% off")),
        ],
    )
    def test_debug_line_is_unchanged_and_formatted_lazily(self, format, args, caplog):
        handler = service.KomoheRequestHandler.__new__(service.KomoheRequestHandler)
        handler.client_address = ("127.0.0.1", 50000)
        with caplog.at_level(logging.DEBUG, logger="komohe.service"):
            handler.log_message(format, *args)
        [record] = caplog.records
        assert record.getMessage() == "%s - %s" % ("127.0.0.1", format % args)
        assert record.args[1:] == args  # kept apart until a handler formats them

    def test_a_request_logs_one_access_line_at_debug(self, base_url, caplog):
        with caplog.at_level(logging.DEBUG, logger="komohe.service"):
            assert get(base_url, "/vocabularies")[0] == 200
        lines = [r.getMessage() for r in caplog.records if r.name == "komohe.service"]
        assert lines == ['127.0.0.1 - "GET /vocabularies HTTP/1.1" 200 -']


class TestHttpServerErrorsAreJson:
    def test_unsupported_method(self, base_url):
        request = b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        status_line, headers, body = raw_exchange(base_url, request)
        assert status_line.split()[1] == "501"
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert payload["v"] == 1 and "POST" in payload["error"]

    def test_head_gets_the_headers_only(self, base_url):
        status_line, headers, body = raw_exchange(base_url, b"HEAD /x HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status_line.split()[1] == "501"
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert int(headers["Content-Length"]) > 0 and body == b""

    def test_bad_request_line(self, base_url):
        # a one-word line is answered as HTTP/0.9: the body alone, no status line
        payload = json.loads(raw_reply(base_url, b"GARBAGE\r\n"))
        assert payload["v"] == 1 and "GARBAGE" in payload["error"]

    def test_request_line_with_quotes_and_backslashes(self, base_url):
        status_line, _, body = raw_exchange(base_url, b'GET /a"\\ b c HTTP/1.1\r\n\r\n')
        assert status_line.split()[1] == "400"
        assert json.loads(body)["v"] == 1


class TestGetWithBody:
    @pytest.mark.parametrize("body", [b"hello", b"x" * MAX_GET_BODY], ids=["short", "largest"])
    def test_body_is_read_and_the_connection_kept(self, base_url, body):
        conn = HTTPConnection(*_address(base_url), timeout=10)
        try:
            conn.connect()
            sock = conn.sock
            requests = [("/translate?term=hacker&to_lang=en", body), ("/vocabularies", None)]
            for path, sent in requests:
                conn.request("GET", path, body=sent)
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["v"] == 1
            assert conn.sock is sock
        finally:
            conn.close()

    def test_transfer_encoding_is_a_json_501_then_close(self, base_url):
        # a chunked body left unread would be parsed as the next request line
        request = (
            b"GET /vocabularies HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n"
            b"GET /vocabularies HTTP/1.1\r\n\r\n"
        )
        status_line, headers, body = raw_exchange(base_url, request)
        assert status_line.split()[1] == "501"
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert len(body) == int(headers["Content-Length"])  # then EOF: nothing else was answered
        assert json.loads(body) == {"v": 1, "error": "Transfer-Encoding is not supported"}

    @pytest.mark.parametrize(
        "length, status",
        [(str(MAX_GET_BODY + 1), 413), ("five", 400), ("-1", 400), ("²", 400)],
        ids=["too-long", "not-a-number", "negative", "non-ascii-digit"],
    )
    def test_unusable_length_is_a_json_error_then_close(self, base_url, length, status):
        request = f"GET /vocabularies HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        status_line, headers, body = raw_exchange(base_url, request.encode("latin-1"))
        assert status_line.split()[1] == str(status)
        assert headers["Connection"] == "close"
        assert json.loads(body)["v"] == 1
