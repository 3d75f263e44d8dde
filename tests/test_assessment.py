import io
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from komohe import assessment
from komohe.assessment import (
    Verdict,
    assess_mapping,
    load_corpus,
    sample_assessment,
)
from komohe.errors import FormatError, InvalidMappingError, NotFoundError
from komohe.registry import VocabularyRegistry, normalize_term
from komohe.store import Concept, CrosswalkStore, Mapping, RelationType, RelevanceRating

from conftest import CORPUS_TSV
from oracles import brute_force_count, oracle_normalize


@pytest.fixture
def corpus():
    load = load_corpus(io.StringIO(CORPUS_TSV))
    assert not load.errors
    return load.corpus


class TestLoadCorpus:
    def test_header_required(self):
        with pytest.raises(FormatError):
            load_corpus(io.StringIO("d1\ta\tx\n"))

    def test_malformed_lines_reported(self):
        text = "#corpus v1\nd1\ta\tx\nbroken line\nd2\ta\n"
        load = load_corpus(io.StringIO(text))
        assert len(load.corpus) == 1
        assert [no for no, _ in load.errors] == [3, 4]

    def test_descriptors_normalized(self):
        text = "#corpus v1\nd1\ta\t ISDN   Device \n"
        load = load_corpus(io.StringIO(text))
        assert load.corpus.count_with_all("a", ("isdn device",)) == 1

    def test_document_counts_when_its_only_term_is_rejected(self):
        load = load_corpus(io.StringIO("#corpus v1\nd1\ta\t   \nd2\ta\tx"))
        assert [no for no, _ in load.errors] == [2]
        assert len(load.corpus) == 2
        assert load.corpus.count_with_all("a", ()) == 2
        assert load.corpus.count_with_all("a", ("x",)) == 1

    def test_counts(self, corpus):
        assert len(corpus) == 20
        assert corpus.count_with_all("B", ("hacking",)) == 5
        assert corpus.count_with_all("A", ("hacker",)) == 2
        assert corpus.count_with_all("B", ("ghost",)) == 0

    def test_conjunctive_counting(self, corpus):
        # d05 has computers only, d06/d18 have crime; only d18 has both
        assert corpus.count_with_all("B", ("computers",)) == 2
        assert corpus.count_with_all("B", ("crime",)) == 2
        assert corpus.count_with_all("B", ["computers", "crime"]) == 1
        assert corpus.count_with_all("B", ["internet", "security"]) == 2


# Descriptor terms: a few base forms, each spelled in case, whitespace and
# Unicode-composition variants that normalize to the same key.
BASE_TERMS = ["hacking", "computers", "crime", "isdn device", "straße", "café"]
SPELLINGS = [
    str,
    str.upper,
    str.title,
    lambda t: f"  {t} ",
    lambda t: t.replace(" ", "   "),
    lambda t: unicodedata.normalize("NFD", t),
]


def spelled(bases):
    return st.builds(
        lambda base, spell: spell(base), st.sampled_from(bases), st.sampled_from(SPELLINGS)
    )


DOC = st.sampled_from(["d1", "d2", "d3", "d4", "d5", "d6"])
GOOD_LINE = st.tuples(DOC, st.sampled_from(["A", "B"]), spelled(BASE_TERMS)).map("\t".join)
BAD_LINE = st.one_of(
    # a rejected term: its document still counts, its descriptor does not
    st.tuples(st.sampled_from(["d1", "d7"]), st.just("A"), st.sampled_from(["  ", " \u00a0"])).map(
        "\t".join
    ),
    # malformed: nothing on the line counts
    st.sampled_from(["d1\tA", "\tA\thacking", "d2\t \tcrime", "d3\tA\tcrime\textra"]),
)
# good lines, some followed by a bad one, then a third of the good lines
# again (the same descriptor twice in a document)
LINES = st.lists(
    st.tuples(GOOD_LINE, st.lists(BAD_LINE, max_size=1)), min_size=8, max_size=30
).map(
    lambda drawn: [line for good, bad in drawn for line in (good, *bad)]
    + [good for good, _ in drawn[: len(drawn) // 3]]
)
# C is a vocabulary no line names and "ghost" a term none does; 2-4 terms
# make a combination, and a term may repeat in one
QUERY = st.tuples(
    st.sampled_from(["A", "B", "C"]), st.lists(spelled([*BASE_TERMS, "ghost"]), max_size=4)
)


def scan_model(lines):
    """{doc id: {(vocab, normalized term)}} by the corpus TSV's line rules."""
    docs: dict = {}
    for line in lines:
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0].strip() or not fields[1].strip():
            continue
        doc_id, vocab, term = fields
        descriptors = docs.setdefault(doc_id, set())
        if oracle_normalize(term):
            descriptors.add((vocab, oracle_normalize(term)))
    return docs


class TestPostings:
    @settings(deadline=None)
    @given(lines=LINES, queries=st.lists(QUERY, min_size=1, max_size=8))
    def test_counts_match_a_scan_of_every_document(self, lines, queries):
        load = load_corpus(io.StringIO("\n".join(["#corpus v1", *lines]) + "\n"))
        docs = scan_model(lines)
        assert len(load.corpus) == len(docs)
        for vocab, terms in queries:
            assert load.corpus.count_with_all(vocab, tuple(terms)) == brute_force_count(
                docs, vocab, terms
            )
            for term in terms:
                assert load.corpus.count_with_all(vocab, (term,)) == brute_force_count(docs, vocab, [term])


class TestPostingsLayout:
    # d1 repeats "crime" with d2's line in between, and "Crime" in another spelling
    TEXT = "#corpus v1\nd1\tB\tcrime\nd2\tB\tcrime\nd1\tB\tCrime\nd1\tB\tcrime\nd2\tA\tx\n"

    def test_each_posting_is_a_tuple_of_distinct_shared_doc_ids(self):
        corpus = load_corpus(io.StringIO(self.TEXT)).corpus
        assert corpus.postings == {"B": {"crime": ("d1", "d2")}, "A": {"x": ("d2",)}}
        for by_term in corpus.postings.values():
            for docs in by_term.values():
                assert type(docs) is tuple
                assert len(set(docs)) == len(docs)
                assert all(doc_id is corpus.doc_ids[doc_id] for doc_id in docs)
        assert corpus.count_with_all("B", ("crime",)) == 2

    def test_each_raw_term_is_normalized_once_per_vocabulary(self, monkeypatch):
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr(assessment, "normalize_term", counting)
        load_corpus(io.StringIO(self.TEXT + "d3\tA\tcrime\nd3\tB\tCrime\n"))
        # B: "crime", "Crime"; A: "x", "crime"
        assert sorted(seen) == ["Crime", "crime", "crime", "x"]

    def test_a_stored_key_is_not_normalized_again_and_a_variant_once(self, monkeypatch):
        corpus = load_corpus(io.StringIO("#corpus v1\nd1\tA\tX  Ray\nd1\tB\ty\nd2\tB\tY\n")).corpus
        mapping = Mapping(Concept.single("x ray"), RelationType.EQ, Concept.single("y"))
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr(assessment, "normalize_term", counting)
        result = assess_mapping(mapping, "A", "B", corpus)
        assert (result.source_hits, result.target_hits, seen) == (1, 2, [])
        assert [corpus.count_with_all(v, (t,)) for v, t in (("A", "X Ray"), ("B", " Y"))] == [1, 2]
        assert seen == ["X Ray", " Y"]


class TestAssessMapping:
    def test_ok_verdict(self, sixrow, corpus):
        (cw, m), = sixrow.store.mappings_from("hacker", relations={RelationType.EQ})
        result = assess_mapping(m, cw.source_vocab, cw.target_vocab, corpus)
        assert result.source_hits == 2
        assert result.target_hits == 5
        assert result.verdict is Verdict.OK

    def test_empty_target_verdict(self, sixrow, corpus):
        rows = sixrow.store.mappings_from("documentation system")
        (cw, m), = rows
        result = assess_mapping(m, cw.source_vocab, cw.target_vocab, corpus)
        assert result.target_hits == 1  # d10
        result2 = assess_mapping(
            Mapping(
                source=Concept.single("hacker"),
                relation=RelationType.EQ,
                target=Concept.single("ghost term"),
            ),
            "A",
            "B",
            corpus,
        )
        assert result2.verdict is Verdict.EMPTY_TARGET
        assert result2.target_hits == 0

    def test_combination_assessed_conjunctively(self, sixrow, corpus):
        rows = sixrow.store.mappings_from("hacker", relations={RelationType.ASSOC})
        by_label = {m.target.label: (cw, m) for cw, m in rows}
        cw, m = by_label["computers + crime"]
        assert assess_mapping(m, cw.source_vocab, cw.target_vocab, corpus).target_hits == 1
        cw, m = by_label["internet + security"]
        assert assess_mapping(m, cw.source_vocab, cw.target_vocab, corpus).target_hits == 2

    def test_null_mapping_rejected(self, sixrow, corpus):
        (cw, m), = sixrow.store.mappings_from("isdn device")
        with pytest.raises(InvalidMappingError):
            assess_mapping(m, cw.source_vocab, cw.target_vocab, corpus)


class TestSampleAssessment:
    def test_deterministic_for_seed(self, sixrow, corpus):
        a = sample_assessment(sixrow.store, "A-B", corpus, sample_size=3, seed=1)
        b = sample_assessment(sixrow.store, "A-B", corpus, sample_size=3, seed=1)
        assert a.to_tsv() == b.to_tsv()
        assert a.sample_size == 3

    def test_sample_excludes_null(self, sixrow, corpus):
        report = sample_assessment(sixrow.store, "A-B", corpus, sample_size=10, seed=0)
        assert report.sample_size == 5  # six mappings minus the null row
        labels = [row.mapping.label for row in report.rows]
        assert all("isdn device" not in label for label in labels)

    def test_rows_follow_export_order(self, sixrow, corpus):
        # by source term, then insertion order, as export_tsv writes them
        report = sample_assessment(sixrow.store, "A-B", corpus, sample_size=5, seed=7)
        assert [row.mapping.label for row in report.rows] == [
            "documentation system > abstracting services",
            "hacker = hacking",
            "hacker ^ computers + crime",
            "hacker ^ internet + security",
            "isdn < telecommunications",
        ]

    def test_same_rows_as_a_set_based_selection(self, corpus):
        store = CrosswalkStore(VocabularyRegistry())
        for i in range(40):
            relation = RelationType.NULL if i % 7 == 0 else RelationType.EQ
            target = [] if relation is RelationType.NULL else [f"t{i}"]
            store.add_row("A", f"s{i}", relation, "B", target, RelevanceRating.HIGH)
        mappings = store.crosswalk("A-B").mappings
        # in export order: s0, s1, s10, ...
        candidates = sorted((m for m in mappings if m.relation is not RelationType.NULL), key=lambda m: m.source.label)
        for seed in range(21):
            chosen = set(random.Random(seed).sample(candidates, 9))
            expected = [m for m in candidates if m in chosen]
            report = sample_assessment(store, "A-B", corpus, sample_size=9, seed=seed)
            assert [row.mapping for row in report.rows] == expected

    def test_bad_inputs(self, sixrow, corpus):
        with pytest.raises(InvalidMappingError):
            sample_assessment(sixrow.store, "A-B", corpus, sample_size=0, seed=1)
        with pytest.raises(NotFoundError):
            sample_assessment(sixrow.store, "nope", corpus, sample_size=1, seed=1)

    def test_report_tsv_shape(self, sixrow, corpus):
        report = sample_assessment(sixrow.store, "A-B", corpus, sample_size=5, seed=1)
        lines = report.to_tsv().splitlines()
        assert lines[0] == "mapping\tsource_hits\ttarget_hits\tverdict"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split("\t")
            assert len(fields) == 4
            assert fields[3] in ("OK", "EMPTY_TARGET")

    def test_empty_target_rate(self, sixrow, corpus):
        report = sample_assessment(sixrow.store, "A-B", corpus, sample_size=5, seed=1)
        empties = sum(
            1 for row in report.rows if row.result.verdict is Verdict.EMPTY_TARGET
        )
        assert report.empty_target_rate == empties / 5
