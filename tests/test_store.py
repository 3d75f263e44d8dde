import random

import pytest

from komohe.errors import (
    ConflictError,
    FormatError,
    InvalidMappingError,
    InvalidTermError,
    NotFoundError,
)
from komohe.registry import VocabularyRegistry
from komohe.service import Dataset
from komohe.store import (
    TSV_HEADER,
    Concept,
    CrosswalkStore,
    Mapping,
    RelationType,
    RelevanceRating,
)

from conftest import SIXROW_TSV
from oracles import brute_force_reverse


def fresh_store() -> CrosswalkStore:
    reg = VocabularyRegistry()
    reg.ensure_vocabulary("a")
    reg.ensure_vocabulary("b")
    reg.ensure_vocabulary("c")
    for term in ("x", "y", "z", "w"):
        reg.add_term("a", term)
        reg.add_term("b", term)
        reg.add_term("c", term)
    return CrosswalkStore(reg)


def simple_mapping(source="x", relation=RelationType.EQ, target="y", rating=RelevanceRating.HIGH):
    return Mapping(
        source=Concept.single(source),
        relation=relation,
        target=Concept.single(target) if target else None,
        rating=rating,
    )


class TestEnums:
    def test_relation_parse(self):
        assert RelationType.parse("=") is RelationType.EQ
        assert RelationType.parse("0") is RelationType.NULL
        with pytest.raises(InvalidMappingError):
            RelationType.parse("~")

    def test_rating_parse_and_rank(self):
        assert RelevanceRating.parse("high").rank == 3
        assert RelevanceRating.parse("") is RelevanceRating.UNRATED
        with pytest.raises(InvalidMappingError):
            RelevanceRating.parse("great")

    def test_rating_meets(self):
        assert RelevanceRating.MEDIUM.meets(RelevanceRating.LOW)
        assert RelevanceRating.MEDIUM.meets(RelevanceRating.MEDIUM)
        assert not RelevanceRating.MEDIUM.meets(RelevanceRating.HIGH)
        # an unrated mapping never clears an explicit threshold
        assert not RelevanceRating.UNRATED.meets(RelevanceRating.LOW)
        assert RelevanceRating.UNRATED.meets(None)


class TestConcept:
    def test_single(self):
        c = Concept.single("  Hacker ")
        assert c.terms == ("hacker",)
        assert c.is_single
        assert c.label == "hacker"

    def test_combination(self):
        c = Concept.combination(["Computers", "CRIME"])
        assert c.terms == ("computers", "crime")
        assert not c.is_single
        assert c.label == "computers + crime"

    def test_combination_of_one_is_single(self):
        assert Concept.combination(["x"]).is_single

    def test_empty_rejected(self):
        with pytest.raises(InvalidTermError):
            Concept.combination([])


class TestMappingInvariants:
    def test_null_must_have_no_target(self):
        with pytest.raises(InvalidMappingError):
            Mapping(
                source=Concept.single("x"),
                relation=RelationType.NULL,
                target=Concept.single("y"),
            )
        null = Mapping(source=Concept.single("x"), relation=RelationType.NULL, target=None)
        assert null.triple == (("x",), "0", None)

    def test_positive_relation_requires_target(self):
        with pytest.raises(InvalidMappingError):
            Mapping(source=Concept.single("x"), relation=RelationType.EQ, target=None)

    def test_source_must_be_single(self):
        with pytest.raises(InvalidMappingError):
            Mapping(
                source=Concept.combination(["x", "y"]),
                relation=RelationType.EQ,
                target=Concept.single("z"),
            )

    def test_label(self):
        m = Mapping(
            source=Concept.single("hacker"),
            relation=RelationType.ASSOC,
            target=Concept.combination(["computers", "crime"]),
        )
        assert m.label == "hacker ^ computers + crime"


class TestCrosswalkLifecycle:
    def test_create_requires_known_vocabs(self):
        store = fresh_store()
        with pytest.raises(NotFoundError):
            store.create_crosswalk("a", "nope")

    def test_create_rejects_self_mapping(self):
        store = fresh_store()
        with pytest.raises(InvalidMappingError):
            store.create_crosswalk("a", "a")

    def test_create_duplicate_conflicts(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        with pytest.raises(ConflictError):
            store.create_crosswalk("a", "b")

    def test_ensure_crosswalk(self):
        store = fresh_store()
        cw, created = store.ensure_crosswalk("a", "b")
        assert created and cw.id == "a-b"
        cw2, created2 = store.ensure_crosswalk("a", "b")
        assert cw2 is cw and not created2

    def test_id_collision_from_dashed_vocab_ids(self):
        reg = VocabularyRegistry()
        reg.ensure_vocabulary("a")
        reg.ensure_vocabulary("b-c")
        reg.ensure_vocabulary("a-b")
        reg.ensure_vocabulary("c")
        store = CrosswalkStore(reg)
        store.create_crosswalk("a", "b-c")  # id "a-b-c"
        with pytest.raises(ConflictError):
            store.create_crosswalk("a-b", "c")  # same derived id


class TestAddAndQuery:
    def test_add_assigns_sequential_ids(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        id1 = store.add_mapping("a-b", simple_mapping("x", target="y"))
        id2 = store.add_mapping("a-b", simple_mapping("y", target="z"))
        assert id1 == "a-b:1"
        assert id2 == "a-b:2"

    def test_add_requires_registered_terms(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        with pytest.raises(NotFoundError):
            store.add_mapping("a-b", simple_mapping("ghost", target="y"))
        with pytest.raises(NotFoundError):
            store.add_mapping("a-b", simple_mapping("x", target="ghost"))

    def test_duplicate_triple_conflicts(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        store.add_mapping("a-b", simple_mapping())
        with pytest.raises(ConflictError):
            store.add_mapping("a-b", simple_mapping(rating=RelevanceRating.LOW))

    def test_near_duplicates_are_not_conflicts(self):
        store = fresh_store()
        cw = store.create_crosswalk("a", "b")
        x_y = simple_mapping("x", target="y")
        store.add_mapping("a-b", x_y)
        near = [
            simple_mapping("x", target="z"),  # another target
            simple_mapping("x", relation=RelationType.ASSOC, target="y"),  # another relation
            Mapping(Concept.single("x"), RelationType.EQ, Concept.combination(["y", "z"])),
        ]
        for mapping in near:
            assert not cw.contains(mapping)
            store.add_mapping("a-b", mapping)
        assert all(cw.contains(m) for m in [x_y, *near])
        assert [m for _, m in store.mappings_from("x")] == [x_y, *near]

    def test_same_triple_in_other_crosswalk_ok(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        store.create_crosswalk("a", "c")
        store.add_mapping("a-b", simple_mapping())
        store.add_mapping("a-c", simple_mapping())
        assert len(store.mappings_from("x")) == 2

    def test_mappings_from_filters(self, sixrow):
        store = sixrow.store
        all_rows = store.mappings_from("hacker")
        assert [m.relation for _, m in all_rows] == [
            RelationType.EQ,
            RelationType.ASSOC,
            RelationType.ASSOC,
        ]
        eq_only = store.mappings_from("hacker", relations={RelationType.EQ})
        assert [m.target.label for _, m in eq_only] == ["hacking"]
        high = store.mappings_from("hacker", min_rating=RelevanceRating.HIGH)
        assert len(high) == 1
        none = store.mappings_from("hacker", target_vocabs={"c"})
        assert none == []
        assert store.mappings_from("HACKER  ") == all_rows  # query normalized

    def test_min_rating_excludes_unrated(self, sixrow):
        rows = sixrow.store.mappings_from("isdn device", min_rating=RelevanceRating.LOW)
        assert rows == []

    def test_mappings_to_matches_combination_members(self, sixrow):
        rows = sixrow.store.mappings_to("crime")
        assert len(rows) == 1
        assert rows[0][1].target.label == "computers + crime"
        assert sixrow.store.mappings_to("crime", target_vocab="c") == []

    def test_mappings_to_matches_brute_force(self):
        store = CrosswalkStore(VocabularyRegistry())
        rows = [
            # `-` in a vocabulary id: crosswalk ids a-b, a-b-c and b-a-b
            # sort by the id text, not by the vocabulary pair
            ("a-b", "x", RelationType.EQ, "c", ["a"]),
            ("a", "x", RelationType.EQ, "b", ["a", "a"]),  # lists `a` twice
            ("b", "x", RelationType.ASSOC, "a-b", ["c", "a"]),
            ("a", "y", RelationType.NULL, "b", []),
            ("a", "z", RelationType.BROADER_TARGET, "b", ["a"]),
            ("a-b", "y", RelationType.NARROWER_TARGET, "c", ["b", "a", "c"]),
        ]
        for source_vocab, source, relation, target_vocab, members in rows:
            store.add_row(source_vocab, source, relation, target_vocab, members, RelevanceRating.HIGH)
        crosswalks = store.crosswalks()
        assert [cw.id for cw in crosswalks] == ["a-b", "a-b-c", "b-a-b"]
        for term in ("a", "b", "c", "x", "y"):
            for target_vocab in (None, "a", "b", "c", "a-b"):
                expected = brute_force_reverse(crosswalks, term, target_vocab)
                assert store.mappings_to(term, target_vocab=target_vocab) == expected
        assert [(cw.id, m.label) for cw, m in store.mappings_to("A ")] == [
            ("a-b", "x = a + a"),
            ("a-b", "z < a"),
            ("a-b-c", "x = a"),
            ("a-b-c", "y > b + a + c"),
            ("b-a-b", "x ^ c + a"),
        ]

    def test_stats_zero_filled(self, sixrow):
        stats = sixrow.store.stats()["A-B"]
        assert stats.mapping_count == 6
        assert stats.relations[RelationType.EQ] == 1
        assert stats.relations[RelationType.ASSOC] == 2
        assert stats.relations[RelationType.NULL] == 1
        assert stats.relations[RelationType.BROADER_TARGET] == 1
        assert stats.relations[RelationType.NARROWER_TARGET] == 1
        assert stats.ratings[RelevanceRating.HIGH] == 2
        assert stats.ratings[RelevanceRating.UNRATED] == 1


class TestTsvImport:
    def test_header_required(self):
        store = fresh_store()
        with pytest.raises(FormatError):
            store.import_tsv("a\tx\t=\tb\ty\thigh\n")
        with pytest.raises(FormatError):
            store.import_tsv("")

    def test_malformed_lines_collected_not_fatal(self):
        text = (
            f"{TSV_HEADER}\n"
            "a\tx\t=\tb\ty\thigh\n"
            "a\tx\t?\tb\ty\thigh\n"  # bad relation
            "a\tx\t=\tb\ty\tsuperb\n"  # bad rating
            "a\n"  # too few fields
            "a\tz\t=\tb\ty\thigh\textra\n"  # 7th field, not a comment
            "a\tw\t=\tb\ty\thigh\t# reviewed 2007\n"  # trailing comment ok
            "a\tx\t=\tb\ty\thigh\n"  # duplicate triple
        )
        store = fresh_store()
        report = store.import_tsv(text)
        assert report.mappings_added == 2
        assert sorted(no for no, _ in report.errors) == [3, 4, 5, 6, 8]

    def test_null_row_with_explicit_vocab(self):
        text = f"{TSV_HEADER}\na\tx\t0\tb\t\t\n"
        store = fresh_store()
        report = store.import_tsv(text)
        assert report.mappings_added == 1
        (cw, m), = store.mappings_from("x")
        assert cw.id == "a-b" and m.relation is RelationType.NULL

    def test_null_row_uses_crosswalk_context(self):
        text = f"{TSV_HEADER}\na\tx\t=\tb\ty\thigh\na\tz\t0\t\t\t\n"
        store = fresh_store()
        report = store.import_tsv(text)
        assert report.mappings_added == 2
        (cw, _), = store.mappings_from("z")
        assert cw.id == "a-b"

    def test_null_row_without_context_is_an_error(self):
        text = f"{TSV_HEADER}\na\tx\t0\t\t\t\n"
        store = fresh_store()
        report = store.import_tsv(text)
        assert report.mappings_added == 0
        assert len(report.errors) == 1

    def test_null_row_with_target_terms_is_an_error(self):
        text = f"{TSV_HEADER}\na\tx\t0\tb\ty\t\n"
        store = fresh_store()
        report = store.import_tsv(text)
        assert report.mappings_added == 0
        assert len(report.errors) == 1

    def test_auto_registers_vocabs_and_terms(self):
        store = CrosswalkStore(VocabularyRegistry())
        store.import_tsv(f"{TSV_HEADER}\nswd\tInformatik\t=\tlcsh\tcomputer science\thigh\n")
        assert store.registry.has_vocabulary("swd")
        assert store.registry.lookup_term("lcsh", "Computer Science") is not None

    def test_rejected_lines_register_nothing(self):
        text = (
            f"{TSV_HEADER}\n"
            "X\tfoo\t0\t\t\t\n"  # null row without context
            "a\tx\t?\tb\ty\thigh\n"  # bad relation
            "a\t \t=\tb\ty\thigh\n"  # empty source term
            "a\tx\t=\tb\tp +  + q\thigh\n"  # empty combination member
            "a\tx\t=\t\ty\thigh\n"  # missing target vocabulary
            "\tx\t=\tb\ty\thigh\n"  # missing source vocabulary
            "A\tx\t=\tA\ty\t\n"  # same vocabulary on both sides
            "A\tx\t=\tB C\ty\t\n"  # target vocabulary id with whitespace
        )
        store = CrosswalkStore(VocabularyRegistry())
        report = store.import_tsv(text)
        assert [no for no, _ in report.errors] == [2, 3, 4, 5, 6, 7, 8, 9]
        assert store.registry.vocabularies() == []
        assert store.crosswalks() == []

    def test_crosswalk_id_collision_registers_nothing(self):
        store = CrosswalkStore(VocabularyRegistry())
        report = store.import_tsv(f"{TSV_HEADER}\na\tx\t=\tb-c\ty\t\na-b\tx\t=\tc\ty\t\n")
        assert [no for no, _ in report.errors] == [3]
        assert [v.id for v in store.registry.vocabularies()] == ["a", "b-c"]
        assert [cw.id for cw in store.crosswalks()] == ["a-b-c"]


class TestAddRow:
    def test_validates_before_registering(self):
        store = CrosswalkStore(VocabularyRegistry())
        with pytest.raises(InvalidMappingError):
            store.add_row("a", "x", RelationType.EQ, "b", ["p + q"], RelevanceRating.HIGH)
        assert store.registry.vocabularies() == []

    def test_hash_vocabulary_id_registers_nothing(self):
        store = CrosswalkStore(VocabularyRegistry())
        for source, target in [("#x", "B"), ("B", "#x")]:
            with pytest.raises(InvalidTermError):
                store.add_row(source, "a", RelationType.EQ, target, ["b"], RelevanceRating.UNRATED)
        assert store.registry.vocabularies() == []
        assert store.crosswalks() == []

    def test_registers_vocabularies_crosswalk_and_display_terms(self):
        store = CrosswalkStore(VocabularyRegistry())
        targets = ["Computers", "Crime"]
        assert store.add_row("a", " Hacker ", RelationType.EQ, "b", targets, RelevanceRating.HIGH)
        assert not store.add_row("a", "isdn", RelationType.NULL, "b", [], RelevanceRating.UNRATED)
        assert store.registry.lookup_term("a", "hacker").display == "Hacker"
        assert store.registry.lookup_term("b", "crime").display == "Crime"
        (cw, mapping), = store.mappings_from("hacker")
        assert cw.id == "a-b" and mapping.target.terms == ("computers", "crime")
        assert len(cw.mappings) == 2


class TestTsvExport:
    def test_empty_store_is_header_only(self):
        store = fresh_store()
        assert store.export_tsv() == f"{TSV_HEADER}\n"

    def test_selected_crosswalks_only(self):
        store = fresh_store()
        store.create_crosswalk("a", "b")
        store.create_crosswalk("a", "c")
        store.add_mapping("a-b", simple_mapping())
        store.add_mapping("a-c", simple_mapping())
        text = store.export_tsv(["a-c"])
        assert "a\tx\t=\tc\ty\thigh" in text
        assert "\tb\t" not in text

    def test_unknown_crosswalk_raises(self):
        store = fresh_store()
        with pytest.raises(NotFoundError):
            store.export_tsv(["a-b"])

    def test_sixrow_round_trip(self):
        first = Dataset.empty()
        first.store.import_tsv(SIXROW_TSV)
        text = first.store.export_tsv()

        second = Dataset.empty()
        report = second.store.import_tsv(text)
        assert not report.errors
        assert second.store.export_tsv() == text


# random round-trip ----------------------------------------------------

VOCAB_POOL = ["swd", "stw", "thesoz", "mesh-de", "ru01"]
TERM_POOL = [
    "hacker",
    "isdn device",
    "straße",
    "café culture",
    "наука",  # russian
    "social policy",
    "information retrieval",
    "jugend",
    "x",
    "long term with   odd spacing",
]


def random_mappings(rng: random.Random, count: int) -> str:
    """Generate a crosswalk TSV with `count` distinct-triple data lines."""
    lines = [TSV_HEADER]
    seen = set()
    made = 0
    while made < count:
        sv, tv = rng.sample(VOCAB_POOL, 2)
        source = rng.choice(TERM_POOL)
        roll = rng.random()
        if roll < 0.08:
            key = (sv, tv, source, "0", None)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"{sv}\t{source}\t0\t{tv}\t\t")
        else:
            relation = rng.choice(["=", "<", ">", "^"])
            if roll < 0.3:
                targets = " + ".join(rng.sample(TERM_POOL, rng.randint(2, 3)))
            else:
                targets = rng.choice(TERM_POOL)
            key = (sv, tv, source, relation, targets)
            if key in seen:
                continue
            seen.add(key)
            rating = rng.choice(["high", "medium", "low", ""])
            lines.append(f"{sv}\t{source}\t{relation}\t{tv}\t{targets}\t{rating}")
        made += 1
    return "\n".join(lines) + "\n"


def test_random_round_trip_export_import_identity():
    rng = random.Random(2024)
    text = random_mappings(rng, 400)
    first = Dataset.empty()
    report = first.store.import_tsv(text)
    assert not report.errors
    exported = first.store.export_tsv()

    second = Dataset.empty()
    report2 = second.store.import_tsv(exported)
    assert not report2.errors
    assert second.store.export_tsv() == exported

    def triples(store):
        return {
            (cw.id, m.triple, m.rating)
            for cw in store.crosswalks()
            for m in cw.mappings
        }

    assert triples(first.store) == triples(second.store)


class TestCombinationJoinInTerms:
    @pytest.mark.parametrize(
        "target",
        [
            Concept.single("a + b"),
            Concept.combination(["a +", "b"]),
            Concept.combination(["a", "b + c"]),
        ],
    )
    def test_target_that_would_split_differently_is_rejected(self, target):
        with pytest.raises(InvalidMappingError):
            Mapping(source=Concept.single("x"), relation=RelationType.EQ, target=target)

    def test_join_free_targets_survive_a_round_trip(self):
        reg = VocabularyRegistry()
        store = CrosswalkStore(reg)
        reg.ensure_vocabulary("a")
        reg.ensure_vocabulary("b")
        store.create_crosswalk("a", "b")
        reg.add_term("a", "x + y")  # only target columns are split
        for term in ("+ c", "d +", "e+f", "+"):
            reg.add_term("b", term)
        targets = (Concept.combination(["+ c", "+"]), Concept.single("d +"), Concept.single("e+f"))
        for target in targets:
            store.add_mapping("a-b", Mapping(Concept.single("x + y"), RelationType.EQ, target))
        text = store.export_tsv()
        again = CrosswalkStore(VocabularyRegistry())
        assert not again.import_tsv(text).errors
        assert again.export_tsv() == text
        assert [m.target.terms for m in again.crosswalk("a-b").mappings] == [
            ("+ c", "+"),
            ("d +",),
            ("e+f",),
        ]
