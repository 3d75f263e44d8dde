import random
import re

import pytest

from komohe import inference
from komohe.errors import InvalidMappingError, NotFoundError
from komohe.inference import (
    combined_confidence,
    compose_relations,
    detect_variant_mappings,
    export_inferred_tsv,
    infer_pivot,
)
from komohe.service import Dataset
from komohe.store import RelationType, RelevanceRating

from oracles import (
    brute_force_pivot,
    classify_sets,
    oracle_confidence,
    set_model_composition_table,
)

R = RelationType
V = RelevanceRating

POSITIVE = (R.EQ, R.BROADER_TARGET, R.NARROWER_TARGET, R.ASSOC)


# oracle sanity checks come first: if the model itself is wrong, nothing
# downstream means anything.


class TestOracleModel:
    def test_classifier_on_known_sets(self):
        a = frozenset({1, 2})
        assert classify_sets(a, frozenset({1, 2})) is R.EQ
        assert classify_sets(a, frozenset({1, 2, 3})) is R.BROADER_TARGET
        assert classify_sets(a, frozenset({1})) is R.NARROWER_TARGET
        assert classify_sets(a, frozenset({2, 9})) is R.ASSOC
        assert classify_sets(a, frozenset({9})) is None

    def test_derived_table_has_exactly_nine_compositions(self):
        table = set_model_composition_table()
        defined = {k: v for k, v in table.items() if v is not None}
        assert defined == {
            (R.EQ, R.EQ): R.EQ,
            (R.EQ, R.BROADER_TARGET): R.BROADER_TARGET,
            (R.EQ, R.NARROWER_TARGET): R.NARROWER_TARGET,
            (R.EQ, R.ASSOC): R.ASSOC,
            (R.BROADER_TARGET, R.EQ): R.BROADER_TARGET,
            (R.NARROWER_TARGET, R.EQ): R.NARROWER_TARGET,
            (R.ASSOC, R.EQ): R.ASSOC,
            (R.BROADER_TARGET, R.BROADER_TARGET): R.BROADER_TARGET,
            (R.NARROWER_TARGET, R.NARROWER_TARGET): R.NARROWER_TARGET,
        }


class TestComposeRelations:
    def test_matches_set_model_on_positive_pairs(self):
        table = set_model_composition_table()
        for r1 in POSITIVE:
            for r2 in POSITIVE:
                assert compose_relations(r1, r2) is table[(r1, r2)], (r1, r2)

    def test_null_never_composes(self):
        for other in R:
            assert compose_relations(R.NULL, other) is None
            assert compose_relations(other, R.NULL) is None


class TestCombinedConfidence:
    def test_matches_oracle_on_all_pairs(self):
        for r1 in V:
            for r2 in V:
                assert combined_confidence(r1, r2) is oracle_confidence(r1, r2), (r1, r2)

    def test_spot_values(self):
        assert combined_confidence(V.HIGH, V.HIGH) is V.MEDIUM
        assert combined_confidence(V.HIGH, V.MEDIUM) is V.LOW
        assert combined_confidence(V.LOW, V.HIGH) is V.LOW
        assert combined_confidence(V.UNRATED, V.HIGH) is V.UNRATED


class TestJoinTables:
    """The join's confidence table restates combined_confidence, so both must agree."""

    def test_confidences_match_combined_confidence_on_all_16_pairs(self):
        pairs = [(v1, v2) for v1 in V for v2 in V]
        assert len(pairs) == 16
        for v1, v2 in pairs:
            assert inference._CONFIDENCES[v1, v2] is combined_confidence(v1, v2), (v1, v2)
        assert len(inference._CONFIDENCES) == 16


CHAIN_TSV = """\
#komohe-tsv v1
a\thacker\t=\tb\thacking\thigh
a\tvirus\t<\tb\tmalware\thigh
a\tworm\t<\tb\tmalware\tmedium
a\tcrime\t^\tb\tfraud\thigh
a\tnoise\t=\tb\tcomputers + crime\thigh
a\tdead end\t0\tb\t\t
b\thacking\t=\tc\tcomputer crime\thigh
b\tmalware\t<\tc\tthreats\tlow
b\tfraud\t=\tc\tdeception\thigh
b\thacking\t=\tc\tcybercrime\tmedium
"""


class TestInferPivot:
    def build(self):
        data = Dataset.empty()
        report = data.store.import_tsv(CHAIN_TSV)
        assert not report.errors
        return data

    def test_handcrafted_chain(self):
        data = self.build()
        inferred = infer_pivot(data.store, "a", "c", "b")
        got = {
            (m.source.label, m.relation.value, m.target.label, m.confidence)
            for m in inferred
        }
        assert got == {
            ("hacker", "=", "computer crime", V.MEDIUM),
            ("hacker", "=", "cybercrime", V.LOW),
            ("virus", "<", "threats", V.LOW),
            ("worm", "<", "threats", V.LOW),
            ("crime", "^", "deception", V.MEDIUM),
        }

    def test_pivot_recorded(self):
        data = self.build()
        inferred = infer_pivot(data.store, "a", "c", "b")
        by_label = {m.source.label: m for m in inferred}
        assert by_label["crime"].pivot_vocab == "b"

    def test_results_sorted(self):
        data = self.build()
        inferred = infer_pivot(data.store, "a", "c", "b")
        keys = [(m.source.terms, m.relation.value, m.target.terms) for m in inferred]
        assert keys == sorted(keys)

    def test_missing_crosswalk(self):
        data = self.build()
        with pytest.raises(NotFoundError):
            infer_pivot(data.store, "a", "c", "missing")
        with pytest.raises(NotFoundError):
            infer_pivot(data.store, "c", "a", "b")  # reverse legs don't exist

    def test_same_source_and_target_is_rejected_before_either_hop(self):
        data = self.build()
        data.store.import_tsv("#komohe-tsv v1\nb\thacking\t=\ta\thacker\thigh\n")
        message = "crosswalk source and target must differ (got 'a')"
        with pytest.raises(InvalidMappingError, match=re.escape(message)):
            infer_pivot(data.store, "a", "a", "b")
        with pytest.raises(InvalidMappingError, match=re.escape(message)):
            infer_pivot(data.store, "a", "a", "missing")

    def test_combination_targets_do_not_join(self):
        data = self.build()
        inferred = infer_pivot(data.store, "a", "c", "b")
        assert "noise" not in {m.source.label for m in inferred}

    def test_export_inferred(self):
        data = self.build()
        text = export_inferred_tsv(infer_pivot(data.store, "a", "c", "b"), "a", "c")
        lines = text.splitlines()
        assert lines[0] == "#komohe-tsv v1"
        assert all("\t# via:b" in line for line in lines[1:])
        assert any(line.startswith("a\thacker\t=\tc\tcomputer crime\tmedium") for line in lines)


def random_network(rng: random.Random, mapping_count: int) -> Dataset:
    """Three vocabularies with random a-b and b-c crosswalks."""
    terms_a = [f"a{i}" for i in range(40)]
    terms_b = [f"b{i}" for i in range(40)]
    terms_c = [f"c{i}" for i in range(40)]
    relations = ["=", "<", ">", "^"]
    ratings = ["high", "medium", "low", ""]
    lines = ["#komohe-tsv v1"]
    seen = set()
    while len(lines) - 1 < mapping_count:
        if rng.random() < 0.5:
            sv, tv, spool, tpool = "a", "b", terms_a, terms_b
        else:
            sv, tv, spool, tpool = "b", "c", terms_b, terms_c
        source = rng.choice(spool)
        if rng.random() < 0.05:
            key = (sv, source, "0", None)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"{sv}\t{source}\t0\t{tv}\t\t")
            continue
        relation = rng.choice(relations)
        if rng.random() < 0.15:
            target = " + ".join(rng.sample(tpool, 2))
        else:
            target = rng.choice(tpool)
        key = (sv, source, relation, target)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"{sv}\t{source}\t{relation}\t{tv}\t{target}\t{rng.choice(ratings)}")
    data = Dataset.empty()
    report = data.store.import_tsv("\n".join(lines) + "\n")
    assert not report.errors
    return data


def test_random_network_matches_brute_force():
    rng = random.Random(99)
    data = random_network(rng, 300)
    inferred = infer_pivot(data.store, "a", "c", "b")
    got = {
        (m.source.terms, m.relation.value, m.target.terms, m.confidence)
        for m in inferred
    }
    expected = brute_force_pivot(data.store, "a", "c", "b")
    assert got == expected
    assert len(inferred) == len(got)  # no duplicate triples in the output


VARIANT_TSV = """\
#komohe-tsv v1
v1\tterm a\t=\tv3\tterm b\thigh
v2\tterm a\t=\tv3\tterm c\thigh
v1\tagreed\t=\tv3\tsame target\thigh
v2\tagreed\t=\tv3\tsame target\tmedium
v1\tterm a\t^\tv3\tunrelated\thigh
"""


class TestVariantDetection:
    def test_conflict_found_agreement_not(self):
        data = Dataset.empty()
        assert not data.store.import_tsv(VARIANT_TSV).errors
        conflicts = detect_variant_mappings(data.store, "v3")
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.term == "term a"
        assert c.vocab_pair == ("v1", "v2")
        assert c.target_vocab == "v3"
        assert {t.label for t in c.targets} == {"term b", "term c"}

    def test_only_equivalence_considered(self):
        data = Dataset.empty()
        assert not data.store.import_tsv(VARIANT_TSV).errors
        conflicts = detect_variant_mappings(data.store, "v3")
        # the ^ mapping on term a must not create extra pairs
        assert all(
            {t.label for t in c.targets} == {"term b", "term c"} for c in conflicts
        )
