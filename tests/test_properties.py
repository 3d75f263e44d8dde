"""Property tests: TSV, SKOS and data-dir round trips, normalization, the
shared line reader, and the /expand route on fuzzed queries."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from komohe.assessment import load_corpus
from komohe.dataset import Dataset, save_dataset
from komohe.errors import ConflictError, InvalidMappingError, InvalidTermError, KomoheError
from komohe.registry import VocabularyRegistry, normalize_term, read_numbered_lines
from komohe.service import KomoheRequestHandler
from komohe.skos import export_skos, import_skos
from komohe.store import (
    COMBINATION_JOIN,
    Concept,
    CrosswalkStore,
    Mapping,
    RelationType,
    RelevanceRating,
)

from conftest import SIXROW_TSV
from oracles import brute_force_reverse

PROPERTY = settings(deadline=None)

# any code point but surrogates, salted with the combination join, its
# parts, whitespace, comment marks, combining marks and case-folding oddities
SALT = [" + ", "+", " ", "\t", "#", "ß", "İ", "\u0301", "\u00a0"]
TERM = st.lists(st.one_of(st.text(max_size=3), st.sampled_from(SALT)), min_size=1, max_size=5).map(
    "".join
)
ROW = st.tuples(
    st.sampled_from([("a", "b"), ("b", "a"), ("a", "c")]),
    TERM,
    st.sampled_from(list(RelationType)),
    st.lists(TERM, min_size=1, max_size=3),
    st.sampled_from(list(RelevanceRating)),
)


@PROPERTY
@given(st.text())
def test_normalize_term_is_idempotent(raw):
    try:
        once = normalize_term(raw)
    except InvalidTermError:
        return
    assert normalize_term(once) == once


@PROPERTY
@given(st.lists(ROW, max_size=20))
def test_tsv_export_import_export_is_identity(rows):
    store = CrosswalkStore(VocabularyRegistry())
    for (source_vocab, target_vocab), source, relation, members, rating in rows:
        try:
            keys = [normalize_term(t) for t in (source, *members)]
        except InvalidTermError:
            continue
        target = None if relation is RelationType.NULL else Concept(tuple(keys[1:]))
        try:
            mapping = Mapping(Concept((keys[0],)), relation, target, rating)
        except InvalidMappingError:
            # rejected only when the joined members would split differently
            assert COMBINATION_JOIN.join(keys[1:]).split(COMBINATION_JOIN) != keys[1:]
            continue
        store.registry.ensure_vocabulary(source_vocab)
        store.registry.ensure_vocabulary(target_vocab)
        crosswalk, _ = store.ensure_crosswalk(source_vocab, target_vocab)
        store.registry.add_term(source_vocab, source)
        for member in members if target else ():
            store.registry.add_term(target_vocab, member)
        try:
            store.add_mapping(crosswalk.id, mapping)
        except ConflictError:
            continue
    text = store.export_tsv()
    again = CrosswalkStore(VocabularyRegistry())
    assert again.import_tsv(text).errors == []
    assert again.export_tsv() == text


# (header, good data line, malformed data line) per format; term lists
# have no malformed lines, every non-blank line is a term
FORMATS = {
    "tsv": ("#komohe-tsv v1", "a\tx{i}\t=\tb\ty\thigh", "a\tx{i}\t?\tb\ty\thigh"),
    "corpus": ("#corpus v1", "d{i}\tb\ty", "d{i}\tb"),
    "terms": ("#terms a", "term {i}", "term {i} again"),
}
FILLER = {"blank": "   ", "comment": "# note"}


@PROPERTY
@given(st.lists(st.sampled_from(["blank", "comment", "good", "bad"]), max_size=30))
def test_reader_numbers_lines_alike_for_every_format(layout):
    data_lines = [n for n, kind in enumerate(layout, start=2) if kind not in FILLER]
    bad_lines = [n for n, kind in enumerate(layout, start=2) if kind == "bad"]
    texts = {}
    for name, (header, good, bad) in FORMATS.items():
        body = [
            FILLER.get(kind) or (good if kind == "good" else bad).format(i=i)
            for i, kind in enumerate(layout)
        ]
        texts[name] = "\n".join([header, *body]) + "\n"
        read_header, lines = read_numbered_lines(texts[name], header)
        assert read_header == header
        assert [n for n, _ in lines] == data_lines

    report = CrosswalkStore(VocabularyRegistry()).import_tsv(texts["tsv"])
    assert [n for n, _ in report.errors] == bad_lines
    assert [n for n, _ in load_corpus(texts["corpus"]).errors] == bad_lines
    assert VocabularyRegistry().import_terms(texts["terms"]) == len(data_lines)


# vocabulary ids from an alphabet holding the id rules' edge cases: `-`
# joins two ids into a crosswalk id, a leading `#` starts a comment, a
# space is rejected, quotes and backslashes need quoting in a term-list
# header, and non-ASCII ids are percent-encoded in file names
VOCAB_ID = st.text(alphabet="ab-# '\"\\é中.", max_size=4)
# display forms with line breaks, which no term-list line can hold
DISPLAY = st.lists(st.one_of(TERM, st.sampled_from(["\n", "\r\n", "\r"])), min_size=1, max_size=3).map(
    "".join
)
FILE_ROW = st.tuples(
    VOCAB_ID,
    DISPLAY,
    st.sampled_from(list(RelationType)),
    VOCAB_ID,
    st.lists(DISPLAY, max_size=2),
    st.sampled_from(list(RelevanceRating)),
)


@PROPERTY
@given(st.lists(FILE_ROW, max_size=20))
def test_saved_data_dir_reloads_to_the_same_store(rows):
    dataset = Dataset.empty()
    for row in rows:
        try:
            dataset.store.add_row(*row)
        except KomoheError:
            continue
    with tempfile.TemporaryDirectory() as directory:
        save_dataset(dataset, Path(directory))
        again = Dataset.load([Path(directory)])
    assert again.store.export_tsv() == dataset.store.export_tsv()
    ids = [v.id for v in dataset.registry.vocabularies()]
    assert [v.id for v in again.registry.vocabularies()] == ids
    for vocab_id in ids:
        assert again.registry.export_terms(vocab_id) == dataset.registry.export_terms(vocab_id)


# URI delimiters, the escape character, the crosswalk id join and non-ASCII
VOCAB_ID = st.text(alphabet="ab<>:%-é", min_size=1, max_size=4)


@PROPERTY
@given(
    VOCAB_ID,
    VOCAB_ID,
    st.lists(
        st.tuples(
            TERM,
            st.sampled_from(list(RelationType)),
            st.lists(TERM, max_size=2),
            st.sampled_from(list(RelevanceRating)),
        ),
        max_size=20,
    ),
)
def test_skos_round_trip_keeps_single_target_mappings(source_vocab, target_vocab, rows):
    assume(source_vocab != target_vocab)
    store = CrosswalkStore(VocabularyRegistry())
    for source, relation, members, rating in rows:
        try:
            store.add_row(source_vocab, source, relation, target_vocab, members, rating)
        except KomoheError:
            continue
    expected = {
        m.triple
        for cw in store.crosswalks()
        for m in cw.mappings
        if m.target is not None and m.target.is_single
    }
    again = CrosswalkStore(VocabularyRegistry())
    report = import_skos(again, export_skos(store).text, source_vocab, target_vocab)
    assert report.errors == []
    got = [m for cw in again.crosswalks() for m in cw.mappings]
    assert len(got) == len(expected) and {m.triple for m in got} == expected
    assert all(m.rating is RelevanceRating.UNRATED for m in got)


REVERSE_VOCABS = ["a", "b", "a-b", "b-a"]
REVERSE_TERMS = ["p", "q", "r"]


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(REVERSE_VOCABS),
            st.sampled_from(REVERSE_TERMS),
            st.sampled_from(list(RelationType)),
            st.sampled_from(REVERSE_VOCABS),
            st.lists(st.sampled_from(REVERSE_TERMS), max_size=3),
            st.sampled_from(list(RelevanceRating)),
        ),
        max_size=30,
    )
)
def test_mappings_to_matches_brute_force(rows):
    store = CrosswalkStore(VocabularyRegistry())
    for row in rows:
        try:
            store.add_row(*row)
        except KomoheError:
            continue
    for term in REVERSE_TERMS:
        for target_vocab in (None, *REVERSE_VOCABS):
            expected = brute_force_reverse(store.crosswalks(), term, target_vocab)
            assert store.mappings_to(term, target_vocab=target_vocab) == expected


EXPAND_DATASET = Dataset.empty()
EXPAND_DATASET.store.import_tsv(SIXROW_TSV)
QUERY_PARTS = ["(", ")", '"', " ", "AND", "OR", "NOT", "hacker", "isdn", "\t", "\u0301", "ß"]
QUERY = st.lists(st.one_of(st.text(max_size=3), st.sampled_from(QUERY_PARTS)), max_size=12).map(
    " ".join
)


@PROPERTY
@given(st.one_of(QUERY, st.text()))
def test_expand_route_answers_or_raises_a_domain_error(text):
    # do_GET answers a KomoheError with 400 or 404; anything else is a 500
    handler = KomoheRequestHandler.__new__(KomoheRequestHandler)
    handler.dataset = EXPAND_DATASET
    handler.max_expansion_terms = 4
    try:
        payload, status = handler.route(["expand"], {"q": [text]})
    except KomoheError:
        return
    assert status == 200 and payload["expanded"]
