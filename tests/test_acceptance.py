"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a PASS or
FAIL line straight to the terminal (bypassing capture) so a plain pytest
run shows the per-criterion outcome at a glance.
"""

import json
import random
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from komohe import cli
from komohe.inference import detect_variant_mappings, infer_pivot
from komohe.queries import And, Leaf, Not, Or, leaf, parse_query, render_query
from komohe.service import Dataset, ServiceConfig, build_server
from komohe.skos import export_skos, import_skos
from komohe.store import RelationType, RelevanceRating

from conftest import ASYMMETRY_TSV, CORPUS_TSV, SIXROW_TSV, build_dataset
from oracles import brute_force_pivot
from test_inference import VARIANT_TSV, random_network
from test_query import random_ast
from test_store import random_mappings


@contextmanager
def criterion(capsys, number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_fixture_fidelity(capsys):
    with criterion(capsys, 1, "fixture fidelity"):
        start = time.perf_counter()
        data = build_dataset(SIXROW_TSV)
        stats = data.store.stats()["A-B"]
        assert stats.mapping_count == 6
        assert stats.relations == {
            RelationType.EQ: 1,
            RelationType.ASSOC: 2,
            RelationType.NULL: 1,
            RelationType.BROADER_TARGET: 1,
            RelationType.NARROWER_TARGET: 1,
        }

        hacker = data.store.mappings_from("hacker")
        assert [
            (m.source.label, m.relation.value, m.target.label, m.rating)
            for _, m in hacker
        ] == [
            ("hacker", "=", "hacking", RelevanceRating.HIGH),
            ("hacker", "^", "computers + crime", RelevanceRating.MEDIUM),
            ("hacker", "^", "internet + security", RelevanceRating.MEDIUM),
        ]

        isdn_device = data.store.mappings_from("isdn device")
        assert len(isdn_device) == 1
        null_mapping = isdn_device[0][1]
        assert null_mapping.relation is RelationType.NULL
        assert null_mapping.target is None

        assert time.perf_counter() - start < 1.0


def test_criterion_2_asymmetry(capsys):
    with criterion(capsys, 2, "bilateral asymmetry"):
        data = build_dataset(ASYMMETRY_TSV)
        forward = data.store.mappings_from("computer", source_vocab="A")
        backward = data.store.mappings_from("information system", source_vocab="B")
        assert len(forward) == 1 and len(backward) == 1
        forward_target = forward[0][1].target.label
        backward_target = backward[0][1].target.label
        assert forward_target == "information system"
        assert backward_target == "data base"
        # the two directions genuinely disagree
        assert backward_target != forward[0][1].source.label
        assert forward[0][0].id == "A-B" and backward[0][0].id == "B-A"


def _and_skeleton(node):
    """Shape of the And/Not structure; expansion Or-groups and leaves both
    count as a single slot."""
    if isinstance(node, And):
        return ("AND", tuple(_and_skeleton(c) for c in node.children))
    if isinstance(node, Not):
        return ("NOT", _and_skeleton(node.child))
    return "SLOT"


def test_criterion_3_expansion(capsys):
    from komohe.queries import ExpansionConfig, expand_query

    with criterion(capsys, 3, "expansion correctness"):
        data = build_dataset(SIXROW_TSV)
        ast = parse_query("hacker AND security")

        expanded_default, _ = expand_query(ast, data.store, ExpansionConfig())
        assert render_query(expanded_default) == '(("hacker" OR "hacking") AND "security")'

        wide = ExpansionConfig(
            relations=frozenset({RelationType.EQ, RelationType.ASSOC})
        )
        expanded_wide, _ = expand_query(ast, data.store, wide)
        assert render_query(expanded_wide) == (
            '(("hacker" OR "hacking" OR ("computers" AND "crime")'
            ' OR ("internet" AND "security")) AND "security")'
        )
        hacker_group = expanded_wide.children[0]
        assert isinstance(hacker_group, Or)
        assert And((leaf("computers"), leaf("crime"))) in hacker_group.children
        assert And((leaf("internet"), leaf("security"))) in hacker_group.children

        assert _and_skeleton(expanded_default) == _and_skeleton(expanded_wide)
        assert _and_skeleton(expanded_default) == _and_skeleton(ast)


def test_criterion_4_round_trips(capsys):
    with criterion(capsys, 4, "round trips"):
        start = time.perf_counter()
        rng = random.Random(20080401)

        # (a) TSV export/import identity over 1,000 random mappings
        text = random_mappings(rng, 1000)
        first = Dataset.empty()
        report = first.store.import_tsv(text)
        assert report.mappings_added == 1000 and not report.errors
        exported = first.store.export_tsv()
        second = Dataset.empty()
        assert not second.store.import_tsv(exported).errors
        assert second.store.export_tsv() == exported

        def triple_set(dataset):
            return {
                (cw.id, m.source, m.relation, m.target, m.rating)
                for cw in dataset.store.crosswalks()
                for m in cw.mappings
            }

        assert triple_set(second) == triple_set(first)
        assert len(triple_set(first)) == 1000

        # (b) parse(render(ast)) identity over 1,000 random ASTs
        for _ in range(1000):
            ast = random_ast(rng, rng.randint(1, 6))
            assert parse_query(render_query(ast)) == ast

        # (c) SKOS round trip recovers the single-target non-null subset
        for crosswalk in first.store.crosswalks():
            skos = export_skos(first.store, [crosswalk.id])
            fresh = Dataset.empty()
            result = import_skos(
                fresh.store,
                skos.text,
                crosswalk.source_vocab,
                crosswalk.target_vocab,
            )
            assert not result.errors
            expected = {
                (m.source.terms, m.relation, m.target.terms)
                for m in crosswalk.mappings
                if m.target is not None and m.target.is_single
            }
            got = {
                (m.source.terms, m.relation, m.target.terms)
                for cw in fresh.store.crosswalks()
                for m in cw.mappings
            }
            assert got == expected

        assert time.perf_counter() - start < 10.0


def test_criterion_5_inference_oracle(capsys):
    with criterion(capsys, 5, "inference vs oracle"):
        rng = random.Random(513000)
        data = random_network(rng, 1000)
        inferred = infer_pivot(data.store, "a", "c", "b")
        got = {
            (m.source.terms, m.relation.value, m.target.terms, m.confidence)
            for m in inferred
        }
        assert len(got) == len(inferred)
        assert got == brute_force_pivot(data.store, "a", "c", "b")

        variants = build_dataset(VARIANT_TSV)
        conflicts = detect_variant_mappings(variants.store, "v3")
        assert [c.term for c in conflicts] == ["term a"]
        assert all(c.term != "agreed" for c in conflicts)


def test_criterion_6_assessment_determinism(capsys, tmp_path):
    with criterion(capsys, 6, "assessment determinism"):
        datadir = tmp_path / "data"
        sixrow = tmp_path / "sixrow.tsv"
        sixrow.write_text(SIXROW_TSV, encoding="utf-8")
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(CORPUS_TSV, encoding="utf-8")
        assert cli.run(["--data", str(datadir), "import", str(sixrow)]) == 0
        capsys.readouterr()

        args = [
            "--data", str(datadir),
            "check", "--crosswalk", "A-B",
            "--corpus", str(corpus),
            "--sample", "5", "--seed", "1",
        ]
        outputs = []
        for _ in range(3):
            assert cli.run(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

        rows = {
            line.split("\t")[0]: line.split("\t")
            for line in outputs[0].splitlines()[1:]
        }
        # five assessable mappings, sample covers all of them
        assert len(rows) == 5
        # conjunctive counting: only one document carries both members
        assert rows["hacker ^ computers + crime"][2] == "1"
        assert rows["hacker ^ computers + crime"][3] == "OK"
        assert rows["hacker ^ internet + security"][2] == "2"
        assert rows["hacker = hacking"][1:] == ["2", "5", "OK"]


def _fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def test_criterion_7_service_behavior(capsys):
    with criterion(capsys, 7, "service behavior"):
        dataset = build_dataset(SIXROW_TSV)
        server = build_server(dataset, ServiceConfig(host="127.0.0.1", port=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            # the four endpoints return their documented shapes
            status, body = _fetch(base + "/vocabularies")
            doc = json.loads(body)
            assert status == 200 and doc["v"] == 1
            assert {v["id"] for v in doc["vocabularies"]} == {"A", "B"}

            status, body = _fetch(base + "/terms/A/hacker/mappings")
            doc = json.loads(body)
            assert status == 200 and len(doc["mappings"]) == 3
            assert doc["mappings"][0] == {
                "relation": "=",
                "target_vocab": "B",
                "target_terms": ["hacking"],
                "rating": "high",
            }

            status, body = _fetch(base + "/expand?q=hacker%20AND%20security")
            doc = json.loads(body)
            assert status == 200
            assert doc["expanded"] == '(("hacker" OR "hacking") AND "security")'

            status, body = _fetch(base + "/translate?term=hacker&to_lang=en")
            doc = json.loads(body)
            assert status == 200
            assert doc["candidates"] == [
                {"term": "hacking", "vocab": "B", "rating": "high"}
            ]

            # 32 concurrent identical requests, byte-identical bodies
            url = base + "/expand?q=hacker%20AND%20security&relations=%3D,%5E"
            with ThreadPoolExecutor(max_workers=32) as pool:
                results = list(pool.map(lambda _: _fetch(url), range(32)))
            assert all(status == 200 for status, _ in results)
            assert len({body for _, body in results}) == 1

            # malformed requests produce 400s and never kill the process
            for bad in (
                "/expand?q=%28%28%28",
                "/expand?q=",
                "/expand?q=a&relations=junk",
                "/translate?term=x",
            ):
                status, body = _fetch(base + bad)
                assert status == 400, bad
                assert "error" in json.loads(body)

            # 1,000 mixed requests, all successful, under 30 seconds
            urls = [
                base + "/vocabularies",
                base + "/terms/A/hacker/mappings",
                base + "/expand?q=hacker%20AND%20security",
                base + "/translate?term=hacker&to_lang=en",
                base + "/terms/A/isdn%20device/mappings",
            ]
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=16) as pool:
                statuses = list(
                    pool.map(lambda i: _fetch(urls[i % len(urls)])[0], range(1000))
                )
            elapsed = time.perf_counter() - start
            assert statuses.count(200) == 1000
            assert elapsed < 30.0

            # ... and the service still answers
            status, _ = _fetch(base + "/vocabularies")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def test_criterion_8_scale_sanity(capsys):
    with criterion(capsys, 8, "scale sanity"):
        rng = random.Random(100_000)
        vocabs = [f"v{i:02d}" for i in range(10)]
        terms = [f"term {i:05d}" for i in range(5000)]
        lines = ["#komohe-tsv v1"]
        seen = set()
        while len(lines) - 1 < 100_000:
            sv, tv = rng.sample(vocabs, 2)
            source = rng.choice(terms)
            relation = rng.choice(["=", "=", "=", "<", ">", "^"])
            target = rng.choice(terms)
            key = (sv, tv, source, relation, target)
            if key in seen:
                continue
            seen.add(key)
            rating = rng.choice(["high", "medium", "low", ""])
            lines.append(f"{sv}\t{source}\t{relation}\t{tv}\t{target}\t{rating}")
        text = "\n".join(lines) + "\n"

        data = Dataset.empty()
        start = time.perf_counter()
        report = data.store.import_tsv(text)
        load_seconds = time.perf_counter() - start
        assert report.mappings_added == 100_000 and not report.errors
        assert load_seconds < 5.0, f"load took {load_seconds:.2f}s"

        samples = []
        for term in rng.sample(terms, 1000):
            t0 = time.perf_counter()
            data.store.mappings_from(term)
            samples.append(time.perf_counter() - t0)
        median_ms = statistics.median(samples) * 1000
        assert median_ms < 1.0, f"median lookup {median_ms:.3f}ms"
