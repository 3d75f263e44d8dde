import gc
import random

import pytest

from komohe import store as store_module
from komohe.errors import (
    ConflictError,
    FormatError,
    InvalidMappingError,
    InvalidTermError,
    KomoheError,
    NotFoundError,
)
from komohe.registry import Term, Vocabulary, VocabularyRegistry, normalize_term
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
    reg.register_vocabulary(Vocabulary("a"))
    reg.register_vocabulary(Vocabulary("b"))
    reg.register_vocabulary(Vocabulary("c"))
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


class TestCompactRecords:
    def test_records_kept_per_mapping_or_term_have_no_dict(self):
        # one of each is kept per stored mapping or term, so they hold slots only
        records = [
            Concept.single("x"),
            simple_mapping(),
            Term(normalized="x", display="X"),
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


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

    def test_every_member_declares_its_symbol_text_and_rank(self):
        # the one place each form is written: TSV rows, labels, JSON bodies and the CLI read these
        assert [(r.name, r.symbol) for r in RelationType] == [
            ("EQ", "="),
            ("BROADER_TARGET", "<"),
            ("NARROWER_TARGET", ">"),
            ("ASSOC", "^"),
            ("NULL", "0"),
        ]
        assert [(r.name, r.text, r.rank) for r in RelevanceRating] == [
            ("HIGH", "high", 3),
            ("MEDIUM", "medium", 2),
            ("LOW", "low", 1),
            ("UNRATED", "", 0),
        ]
        for relation in RelationType:
            assert relation.value == relation.symbol
            assert RelationType(relation.symbol) is RelationType.parse(relation.symbol) is relation
            assert "symbol" in vars(relation)  # a plain attribute, not a descriptor
        for rating in RelevanceRating:
            assert rating.value == rating.text
            assert RelevanceRating(rating.text) is RelevanceRating.parse(rating.text) is rating
            assert {"text", "rank"} <= vars(rating).keys()



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
        assert (null.source, null.relation, null.target) == (Concept.single("x"), RelationType.NULL, None)

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
    def test_ensure_registers_an_unknown_vocabulary(self):
        store = fresh_store()
        cw = store.ensure_crosswalk("a", "nope")
        assert cw.id == "a-nope" and store.registry.has_vocabulary("nope")
        # the new vocabulary holds no term, so it still receives no mapping
        with pytest.raises(NotFoundError):
            store.add_mapping(cw.id, simple_mapping("x", target="y"))
        assert cw.mappings == []

    def test_create_rejects_self_mapping(self):
        store = fresh_store()
        with pytest.raises(InvalidMappingError):
            store.ensure_crosswalk("a", "a")

    def test_ensure_crosswalk(self):
        store = fresh_store()
        cw = store.ensure_crosswalk("a", "b")
        assert cw.id == "a-b" and store.crosswalk("a-b") is cw
        assert store.ensure_crosswalk("a", "b") is cw

    def test_id_collision_from_dashed_vocab_ids(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        reg.register_vocabulary(Vocabulary("b-c"))
        reg.register_vocabulary(Vocabulary("a-b"))
        reg.register_vocabulary(Vocabulary("c"))
        store = CrosswalkStore(reg)
        store.ensure_crosswalk("a", "b-c")  # id "a-b-c"
        with pytest.raises(ConflictError):
            store.ensure_crosswalk("a-b", "c")  # same derived id

    def test_id_collision_registers_neither_unknown_vocabulary(self):
        store = CrosswalkStore(VocabularyRegistry())
        store.ensure_crosswalk("p", "q-r")  # id "p-q-r"
        with pytest.raises(ConflictError, match="collides with 'p'->'q-r'"):
            store.ensure_crosswalk("p-q", "r")
        assert [v.id for v in store.registry.vocabularies()] == ["p", "q-r"]
        assert [cw.id for cw in store.crosswalks()] == ["p-q-r"]


class TestAddAndQuery:
    def test_add_assigns_sequential_ids(self):
        store = fresh_store()
        store.ensure_crosswalk("a", "b")
        first, second = simple_mapping("x", target="y"), simple_mapping("y", target="z")
        store.add_mapping("a-b", first)
        store.add_mapping("a-b", second)
        assert store.crosswalk("a-b").mappings == [first, second]

    def test_add_requires_registered_terms(self):
        store = fresh_store()
        store.ensure_crosswalk("a", "b")
        with pytest.raises(NotFoundError):
            store.add_mapping("a-b", simple_mapping("ghost", target="y"))
        with pytest.raises(NotFoundError):
            store.add_mapping("a-b", simple_mapping("x", target="ghost"))

    def test_duplicate_triple_conflicts(self):
        store = fresh_store()
        store.ensure_crosswalk("a", "b")
        store.add_mapping("a-b", simple_mapping())
        with pytest.raises(ConflictError):
            store.add_mapping("a-b", simple_mapping(rating=RelevanceRating.LOW))

    def test_near_duplicates_are_not_conflicts(self):
        store = fresh_store()
        cw = store.ensure_crosswalk("a", "b")
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
        store.ensure_crosswalk("a", "b")
        store.ensure_crosswalk("a", "c")
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

    def test_a_stored_key_is_not_normalized_again(self, sixrow, monkeypatch):
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr(store_module, "normalize_term", counting)
        store = sixrow.store
        rows = store.mappings_from("hacker")
        assert [m.label for _, m in rows] == [
            "hacker = hacking",
            "hacker ^ computers + crime",
            "hacker ^ internet + security",
        ]
        assert store.mappings_from("isdn device", relations={RelationType.NULL})
        assert seen == []  # a stored key is its own normal form
        # a case or space variant is normalized once and finds the same rows
        assert store.mappings_from(" Hacker") == rows
        assert store.mappings_from("HACKER") == rows
        assert store.mappings_from("isdn  DEVICE") == store.mappings_from("isdn device")
        assert seen == [" Hacker", "HACKER", "isdn  DEVICE"]
        # a string that is no key anywhere is normalized and finds nothing
        assert store.mappings_from("Unknown") == []
        assert seen[-1] == "Unknown"

    def test_min_rating_excludes_unrated(self, sixrow):
        rows = sixrow.store.mappings_from("isdn device", min_rating=RelevanceRating.LOW)
        assert rows == []

    HIGH_ROWS = {"hacker = hacking", "isdn < telecommunications"}
    MEDIUM_ROWS = HIGH_ROWS | {"hacker ^ computers + crime", "hacker ^ internet + security"}
    RATED_ROWS = MEDIUM_ROWS | {"documentation system > abstracting services"}

    @pytest.mark.parametrize(
        "min_rating, kept",
        [
            (RelevanceRating.HIGH, HIGH_ROWS),
            (RelevanceRating.MEDIUM, MEDIUM_ROWS),  # a threshold keeps its own rating
            (RelevanceRating.LOW, RATED_ROWS),
            # an unrated mapping clears no explicit threshold, UNRATED's own included
            (RelevanceRating.UNRATED, RATED_ROWS),
            (None, RATED_ROWS | {"isdn device 0"}),  # no threshold keeps all
        ],
        ids=["high", "medium", "low", "unrated", "none"],
    )
    def test_min_rating_threshold(self, sixrow, min_rating, kept):
        sources = ("hacker", "isdn device", "isdn", "documentation system")
        got = [
            mapping.label
            for source in sources
            for _, mapping in sixrow.store.mappings_from(source, min_rating=min_rating)
        ]
        assert sorted(got) == sorted(kept)

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


class TestImportRejectionReasons:
    def test_each_kind_of_bad_line_gets_its_reason(self):
        text = (
            f"{TSV_HEADER}\n"
            "a\tx\t=\tb\ty\thigh\n"
            "a\tx\t?\tb\ty\thigh\n"  # bad relation
            "a\tx\t=\tb\ty\tsuperb\n"  # bad rating
            "a\n"  # too few fields
            "a\tz\t=\tb\ty\thigh\textra\n"  # 7th field, not a comment
            "a\tx\t=\tb\ty\thigh\n"  # duplicate triple
            "a\t \t=\tb\ty\thigh\n"  # empty source term
            "X\tfoo\t0\t\t\t\n"  # null row without context
            "a\tx\t=\t\ty\thigh\n"  # missing target vocabulary
            "A\tx\t=\tA\ty\t\n"  # same vocabulary on both sides
            "a\tx\t=\tb\tx\u00a0+ + y\t\n"  # normalizes to members ("x +", "y")
        )
        report = CrosswalkStore(VocabularyRegistry()).import_tsv(text)
        assert report.mappings_added == 1
        assert report.errors == [
            (3, "unknown relation symbol '?'"),
            (4, "unknown rating 'superb'"),
            (5, "expected 6 tab-separated fields, got 1"),
            (6, "expected at most 6 fields, got 7"),
            (7, "duplicate mapping 'x = y' in 'a-b'"),
            (8, "term is empty or whitespace-only"),
            (
                9,
                "null row has no target vocabulary and no preceding "
                "crosswalk for source vocabulary 'X'",
            ),
            (10, "missing target vocabulary"),
            (11, "crosswalk source and target must differ (got 'A')"),
            (12, "target ('x +', 'y') cannot be written: ' + ' joins combination members"),
        ]


class TestImportLeavesGcAsFound:
    ROWS = f"{TSV_HEADER}\na\tx\t=\tb\ty\thigh\na\tz\t=\tb\tw\t\n"

    @pytest.fixture(autouse=True)
    def gc_back_on(self):
        yield
        gc.enable()

    def test_enabled_stays_enabled(self):
        gc.enable()
        assert fresh_store().import_tsv(self.ROWS).mappings_added == 2
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        assert fresh_store().import_tsv(self.ROWS).mappings_added == 2
        assert not gc.isenabled()

    def test_enabled_again_when_the_stream_fails(self):
        enabled_while_reading = []

        def failing_stream():
            yield f"{TSV_HEADER}\n"
            yield "a\tx\t=\tb\ty\thigh\n"
            enabled_while_reading.append(gc.isenabled())
            yield "a\tz\t=\tb\tw\t\n"
            raise OSError("read failed")

        gc.enable()
        store = fresh_store()
        with pytest.raises(OSError, match="read failed"):
            store.import_tsv(failing_stream())
        assert gc.isenabled()
        assert enabled_while_reading == [False]
        assert len(store.crosswalk("a-b").mappings) == 2


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
        store.add_row("a", " Hacker ", RelationType.EQ, "b", targets, RelevanceRating.HIGH)
        store.add_row("a", "isdn", RelationType.NULL, "b", [], RelevanceRating.UNRATED)
        assert store.registry.lookup_term("a", "hacker").display == "Hacker"
        assert store.registry.lookup_term("b", "crime").display == "Crime"
        (cw, mapping), = store.mappings_from("hacker")
        assert cw.id == "a-b" and mapping.target.terms == ("computers", "crime")
        assert len(cw.mappings) == 2


class TestLoadTermMemo:
    def test_mappings_naming_one_term_share_the_registry_key(self):
        registry = VocabularyRegistry()
        registry.register_vocabulary(Vocabulary("b"))
        registry.add_term("b", "Crime")  # known before the load
        store = CrosswalkStore(registry)
        report = store.import_tsv(
            f"{TSV_HEADER}\n"
            "a\tHacker News\t=\tb\tcrime\t\n"
            "a\tHacker News\t^\tb\tcomputers + CRIME\t\n"
            "a\t hacker  news\t<\tc\tcrime\t\n"
            "c\tcrime\t=\ta\tHACKER NEWS\t\n"
        )
        assert not report.errors
        cw = {c.id: c.mappings for c in store.crosswalks()}
        hacker = registry.lookup_term("a", "hacker news").normalized
        crime = registry.lookup_term("b", "crime").normalized
        assert all(m.source.terms[0] is hacker for m in cw["a-b"] + cw["a-c"])
        assert cw["c-a"][0].target.terms[0] is hacker
        assert cw["a-b"][0].target.terms[0] is crime
        assert cw["a-b"][1].target.terms[1] is crime
        # the same string in another vocabulary is that vocabulary's own key
        assert cw["a-c"][0].target.terms[0] is registry.lookup_term("c", "crime").normalized

    def test_a_key_the_registry_holds_is_not_normalized_again(self, monkeypatch):
        registry = VocabularyRegistry()
        for vocab_id, term in [("a", "Hacker News"), ("b", "Crime"), ("b", "computers")]:
            if not registry.has_vocabulary(vocab_id):
                registry.register_vocabulary(Vocabulary(vocab_id))
            registry.add_term(vocab_id, term)
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr(store_module, "normalize_term", counting)
        report = CrosswalkStore(registry).import_tsv(
            f"{TSV_HEADER}\n"
            "a\thacker news\t=\tb\tcrime\t\n"
            "a\thacker news\t^\tb\tcomputers + crime\t\n"
            "a\tHacker News\t<\tb\tcrime\t\n"
        )
        assert not report.errors and report.mappings_added == 3
        assert seen == ["Hacker News"]  # the one raw string that is no key


class TestLoadConceptMemo:
    def test_mappings_naming_one_term_share_one_concept(self):
        registry = VocabularyRegistry()
        registry.register_vocabulary(Vocabulary("b"))
        registry.add_term("b", "Crime")  # known before the load
        store = CrosswalkStore(registry)
        report = store.import_tsv(
            f"{TSV_HEADER}\n"
            "a\tHacker News\t=\tb\tcrime\t\n"
            "a\t hacker  news\t^\tb\tcomputers + CRIME\t\n"
            "a\tHACKER NEWS\t<\tc\tCrime\t\n"
            "c\tcrime\t=\ta\thacker news\t\n"
            "b\t CRIME \t>\ta\tHacker News\t\n"
        )
        assert not report.errors
        mappings = {c.id: c.mappings for c in store.crosswalks()}
        # as a source and as a single target, under every spelling
        hacker = mappings["a-b"][0].source
        assert all(m.source is hacker for m in mappings["a-b"] + mappings["a-c"])
        assert mappings["c-a"][0].target is hacker
        assert mappings["b-a"][0].target is hacker
        crime_b = mappings["a-b"][0].target
        assert mappings["b-a"][0].source is crime_b
        assert crime_b.terms[0] is registry.lookup_term("b", "crime").normalized
        # a combination holds the key, and another vocabulary has its own Concept
        assert mappings["a-b"][1].target.terms[1] is crime_b.terms[0]
        crime_c = mappings["a-c"][0].target
        assert crime_c is not crime_b and mappings["c-a"][0].source is crime_c

    def test_a_combination_naming_one_new_term_twice_shares_its_key(self):
        store = CrosswalkStore(VocabularyRegistry())
        store.import_tsv(f"{TSV_HEADER}\na\tx\t=\tb\tNew + new\t\na\ty\t=\tb\tNEW\t\n")
        first, second = store.crosswalk("a-b").mappings
        key = store.registry.lookup_term("b", "new").normalized
        assert first.target.terms[0] is key and second.target.terms[0] is key

    @pytest.mark.parametrize(
        "row",
        [
            ("a", "New Source", RelationType.NULL, "b", ["New Target"]),  # null with a target
            ("a", "New Source", RelationType.EQ, "a", ["New Target"]),  # self crosswalk
            ("a", "New Source", RelationType.EQ, "b", ["New Target", " "]),  # empty member
            ("a", "New Source", RelationType.EQ, "b", ["New\u00a0+\u00a0Target"]),  # holds the join
        ],
    )
    def test_rejected_row_leaves_nothing_in_the_memo(self, row):
        store = CrosswalkStore(VocabularyRegistry())
        memo = {}
        with pytest.raises(KomoheError):
            store.add_row(*row, RelevanceRating.UNRATED, memo)
        assert not any(memo.values())
        assert store.registry.vocabularies() == []


class TestTsvExport:
    def test_empty_store_is_header_only(self):
        store = fresh_store()
        assert store.export_tsv() == f"{TSV_HEADER}\n"

    def test_selected_crosswalks_only(self):
        store = fresh_store()
        store.ensure_crosswalk("a", "b")
        store.ensure_crosswalk("a", "c")
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
            (cw.id, m.source, m.relation, m.target, m.rating)
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
        reg.register_vocabulary(Vocabulary("a"))
        reg.register_vocabulary(Vocabulary("b"))
        store.ensure_crosswalk("a", "b")
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
