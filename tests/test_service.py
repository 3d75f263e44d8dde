import json
import logging
import random
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from komohe.errors import ConflictError, InvalidMappingError, NotFoundError
from komohe.queries import MAX_QUERY_LEAVES
from komohe.registry import Vocabulary, VocabularyRegistry
from komohe.service import Dataset, ServiceConfig, build_server, translate
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

    def test_rejected_lines_get_one_summary_per_file(self, tmp_path, caplog):
        bad = "".join(f"a\tx{i}\t?\tb\ty\thigh\n" for i in range(50))
        (tmp_path / "crosswalks.tsv").write_text("#komohe-tsv v1\n" + bad)
        with caplog.at_level(logging.WARNING, logger="komohe"):
            Dataset.load([tmp_path])
        assert 1 <= len(caplog.records) <= 6
        assert "50 lines rejected" in caplog.text
        assert "crosswalks.tsv:6:" in caplog.text  # the first five: lines 2 to 6
        assert "crosswalks.tsv:7:" not in caplog.text


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 8080

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


# HTTP integration ------------------------------------------------------


def _start(dataset):
    config = ServiceConfig(host="127.0.0.1", port=0)  # ephemeral
    srv = build_server(dataset, config)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


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
    srv, thread = _start(dataset)
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


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
