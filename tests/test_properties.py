"""Property tests: TSV, SKOS and data-dir round trips (vocabulary metadata
included), normalization, the shared line reader, the TSV load against a
row-by-row oracle, SKOS URI quoting against urllib and the SKOS import
against a line-by-line oracle, the query tokenizer against a character-loop
oracle, the query parser's round trip and error positions, the /expand route
on fuzzed queries, pivot inference against a brute-force join, and the
variant audit against a brute-force audit."""

import tempfile
from pathlib import Path
from urllib.parse import quote, unquote

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from komohe import skos
from komohe.assessment import load_corpus
from komohe.dataset import Dataset, save_dataset
from komohe.errors import (
    ConflictError,
    InvalidMappingError,
    InvalidTermError,
    KomoheError,
    QueryParseError,
)
from komohe.inference import detect_variant_mappings, infer_pivot
from komohe.queries import (
    MAX_QUERY_DEPTH,
    And,
    ExpansionConfig,
    Leaf,
    Or,
    _tokenize,
    expand_query,
    parse_query,
    render_query,
)
from komohe.registry import (
    ISO_639_1,
    Vocabulary,
    VocabularyRegistry,
    normalize_term,
    read_numbered_lines,
)
from komohe.service import KomoheRequestHandler, ServiceConfig
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
from oracles import (
    brute_force_from,
    brute_force_pivot,
    brute_force_reverse,
    brute_force_variants,
    line_by_line_skos_read,
    oracle_tokenize,
    row_by_row_load,
)

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
        for vocab in (source_vocab, target_vocab):
            if not store.registry.has_vocabulary(vocab):
                store.registry.register_vocabulary(Vocabulary(vocab))
        crosswalk = store.ensure_crosswalk(source_vocab, target_vocab)
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


MEMBER = st.lists(st.sampled_from(["a", "b", "+", " ", " + "]), min_size=1, max_size=6).map("".join)


@PROPERTY
@given(st.lists(MEMBER.filter(str.strip).map(normalize_term), min_size=1, max_size=3))
def test_target_is_rejected_exactly_when_its_members_would_split_differently(members):
    members = tuple(members)
    splits_back = tuple(COMBINATION_JOIN.join(members).split(COMBINATION_JOIN)) == members
    try:
        Mapping(Concept.single("x"), RelationType.EQ, Concept(members))
    except InvalidMappingError:
        assert not splits_back
    else:
        assert splits_back


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


# SKOS and the service config have no header, are numbered from 1 and
# strip a line before the comment test, so an indented `# note` is a comment
LINE_FILLER = {"blank": "", "spaces": " \t ", "comment": "# note", "indented comment": "   # note"}
SKOS_LINES = {
    "good": "<urn:kos:a:x{n}> <http://www.w3.org/2004/02/skos/core#exactMatch> <urn:kos:b:y> .",
    "bad": "<urn:kos:a:x{n}> broken",
    "other": "<urn:kos:a:x{n}> <http://example.org/p> <urn:kos:b:y> .",
}
CONFIG_LINES = {"good": "port = {n}", "bad": " read_timeout={n} ", "other": "\thost = h{n}"}


def headerless_text(layout, lines):
    return "\n".join(
        LINE_FILLER[kind] if kind in LINE_FILLER else lines[kind].format(n=n)
        for n, kind in enumerate(layout, start=1)
    ) + "\n"


@PROPERTY
@given(st.lists(st.sampled_from([*LINE_FILLER, *SKOS_LINES]), max_size=30))
def test_headerless_formats_skip_blank_and_comment_lines_alike(layout):
    numbered = list(enumerate(layout, start=1))
    report = import_skos(CrosswalkStore(VocabularyRegistry()), headerless_text(layout, SKOS_LINES), "a", "b")
    # a triple with another predicate is rejected like a malformed one, in line order
    assert [n for n, _ in report.errors] == [n for n, kind in numbered if kind in ("bad", "other")]
    assert report.mappings_added == layout.count("good")

    # the config reads the same layout, each data kind setting one key;
    # the last line naming a key wins
    fields = {"good": "port", "bad": "read_timeout", "other": "host"}
    values = {"good": int, "bad": float, "other": lambda n: f"h{n}"}
    expected = {fields[kind]: values[kind](n) for n, kind in numbered if kind in fields}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "service.conf"
        path.write_text(headerless_text(layout, CONFIG_LINES), encoding="utf-8")
        assert ServiceConfig.from_file(path) == ServiceConfig(**expected)


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


# metadata salted with line breaks str.splitlines splits on, quotes, the
# shell escape, `=` (the header's key/value join), `#` and spaces
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
META_SALT = [*LINE_BREAKS, "'", '"', "\\", "=", "#", " "]
META_TEXT = st.lists(st.one_of(st.text(max_size=4), st.sampled_from(META_SALT)), max_size=4).map(
    "".join
)
VOCABULARY = st.tuples(
    st.one_of(VOCAB_ID, st.text(max_size=6)),
    META_TEXT,
    st.one_of(st.sampled_from(sorted(ISO_639_1)), st.sampled_from(["", "EN", "zz", "eng"])),
    META_TEXT,
)


@PROPERTY
@given(st.lists(VOCABULARY, max_size=4))
def test_vocabulary_metadata_survives_a_data_dir_round_trip(fields):
    dataset = Dataset.empty()
    for vocab_id, name, language, discipline in fields:
        try:
            dataset.registry.register_vocabulary(Vocabulary(vocab_id, name, language, discipline))
        except KomoheError:
            continue
    with tempfile.TemporaryDirectory() as directory:
        save_dataset(dataset, Path(directory))
        again = Dataset.load([Path(directory)])
    assert again.registry.vocabularies() == dataset.registry.vocabularies()


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
        (m.source, m.relation, m.target)
        for cw in store.crosswalks()
        for m in cw.mappings
        if m.target is not None and m.target.is_single
    }
    again = CrosswalkStore(VocabularyRegistry())
    report = import_skos(again, export_skos(store).text, source_vocab, target_vocab)
    assert report.errors == []
    got = [m for cw in again.crosswalks() for m in cw.mappings]
    assert len(got) == len(expected) and {(m.source, m.relation, m.target) for m in got} == expected
    assert all(m.rating is RelevanceRating.UNRATED for m in got)


@PROPERTY
@given(st.text())
def test_quoting_matches_quote(text):
    assert skos._quote(text) == quote(text, safe="")


# escapes of ASCII and of non-ASCII bytes in either case, cut-off escapes and a bare `%`
ESCAPED = st.lists(
    st.one_of(
        st.text(max_size=3),
        st.sampled_from(["%", "%2", "%3a", "%3A", "%20", "%C3%A9", "%c3%a9", "%C3", "%%", "%7f", "%80", "%FF"]),
    ),
    max_size=6,
).map("".join)


@PROPERTY
@given(ESCAPED)
def test_unquoting_matches_unquote(text):
    assert skos._unquote(text) == unquote(text)


# URIs that concept_uri writes for the drawn vocabularies, ones it would
# spell otherwise, and others: text after a vocabulary's prefix may hold `:`
# or escapes, or be empty
URI_PREFIX = st.sampled_from(
    ["", "urn:kos:", "urn:kos::", "urn:kos:a:", "urn:kos:b:", "urn:kos:%61:", "urn:kos:%C3%A9:", "urn:kos:a%3Ab:"]
)
URI = st.tuples(URI_PREFIX, ESCAPED, st.sampled_from(["", ":", ":x"])).map("".join)
SKOS_VOCAB = st.sampled_from(["a", "b", "é", "a:b", "", "\udcff"])
SKOS_PREDICATE = st.sampled_from([f"{skos.SKOS_NS}{name}" for name in ("exactMatch", "broadMatch", "closeMatch")])


@PROPERTY
@given(SKOS_VOCAB, SKOS_VOCAB, st.lists(st.tuples(URI, SKOS_PREDICATE, URI), max_size=12))
def test_skos_import_matches_a_line_by_line_read(source_vocab, target_vocab, triples):
    text = "".join(f"<{s}> <{p}> <{o}> .\n" for s, p, o in triples)
    fast, slow = CrosswalkStore(VocabularyRegistry()), CrosswalkStore(VocabularyRegistry())
    try:
        expected = line_by_line_skos_read(slow, text, source_vocab, target_vocab)
    except InvalidMappingError as exc:
        with pytest.raises(InvalidMappingError) as raised:
            import_skos(fast, text, source_vocab, target_vocab)
        assert str(raised.value) == str(exc)
        return
    report = import_skos(fast, text, source_vocab, target_vocab)
    assert (report.mappings_added, report.errors) == expected
    assert fast.export_tsv() == slow.export_tsv()


REVERSE_VOCABS = ["a", "b", "a-b", "b-a"]
REVERSE_TERMS = ["p", "q", "r"]
# rows in drawn order over vocabulary ids holding `-`, so crosswalks are
# created in an order other than their ids' (a-b-a after b-a, say)
LOOKUP_ROWS = st.lists(
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


def positions(rows) -> list[tuple[str, int]]:
    """(crosswalk id, position in its mapping list) per (crosswalk, mapping) row."""
    return [(cw.id, next(i for i, x in enumerate(cw.mappings) if x is m)) for cw, m in rows]


@PROPERTY
@given(
    LOOKUP_ROWS,
    st.fixed_dictionaries(
        {
            "source_vocab": st.sampled_from(REVERSE_VOCABS),
            "relations": st.sets(st.sampled_from(list(RelationType)), min_size=1),
            "min_rating": st.sampled_from(list(RelevanceRating)),
            "target_vocabs": st.sets(st.sampled_from(REVERSE_VOCABS)),
        }
    ),
)
def test_mappings_from_matches_brute_force(rows, filters):
    store = CrosswalkStore(VocabularyRegistry())
    for row in rows:
        try:
            store.add_row(*row)
        except KomoheError:
            continue
    # no filter, each filter alone, and all four together
    for chosen in [{}, *({name: value} for name, value in filters.items()), filters]:
        for term in REVERSE_TERMS:
            expected = brute_force_from(store.crosswalks(), term, **chosen)
            got = store.mappings_from(f" {term.upper()}", **chosen)  # normalized on lookup
            assert positions(got) == positions(expected)


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


# Case and whitespace variants of a few terms, an empty term, and one whose
# no-break spaces normalize into the combination join; with three
# vocabularies and repeated rows a load meets each raw string several times.
LOAD_TERMS = ["Hacker", " hacker", "HACKER  ", "Straße", "STRASSE", "isdn device", "isdn  Device"]
LOAD_TERM = st.sampled_from([*LOAD_TERMS, "  ", "a\u00a0+\u00a0b"])
LOAD_ROW = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    LOAD_TERM,
    st.sampled_from(["=", "<", "^", "0", "0", "?"]),
    st.sampled_from(["a", "b", "c"]),
    st.lists(LOAD_TERM, max_size=3).map(COMBINATION_JOIN.join),
    st.sampled_from(["high", "", "low", "superb"]),
)


@PROPERTY
@given(st.lists(st.sampled_from(LOAD_TERMS), max_size=3), st.lists(LOAD_ROW, max_size=30))
def test_tsv_load_matches_a_row_by_row_load(preloaded, rows):
    rows = rows + rows[: len(rows) // 2]  # duplicates, and memo hits on known raw strings
    fast, slow = CrosswalkStore(VocabularyRegistry()), CrosswalkStore(VocabularyRegistry())
    for store in (fast, slow):  # a term list loaded first: its display forms win
        store.registry.register_vocabulary(Vocabulary("a"))
        for term in preloaded:
            store.registry.add_term("a", term)
    report = fast.import_tsv("#komohe-tsv v1\n" + "".join("\t".join(r) + "\n" for r in rows))
    errors = row_by_row_load(slow, rows)
    assert report.errors == errors
    assert report.mappings_added == len(rows) - len(errors)
    assert fast.export_tsv() == slow.export_tsv()
    vocabularies = [v.id for v in slow.registry.vocabularies()]
    assert [v.id for v in fast.registry.vocabularies()] == vocabularies
    for vocab in vocabularies:
        assert fast.registry.export_terms(vocab) == slow.registry.export_terms(vocab)


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
    try:
        payload, status = handler.route(["expand"], {"q": [text]})
    except KomoheError:
        return
    assert status == 200 and payload["expanded"]


CACHE_TERM = st.sampled_from(["x", "y", "z"])
CACHE_ROW = st.tuples(
    st.sampled_from(["a", "b"]),
    CACHE_TERM,
    st.sampled_from([RelationType.EQ, RelationType.EQ, RelationType.ASSOC]),
    st.sampled_from(["b", "c"]),
    st.lists(st.one_of(CACHE_TERM, st.just('q"q')), min_size=1, max_size=2),
    st.sampled_from([RelevanceRating.HIGH, RelevanceRating.UNRATED]),
)
CACHE_QUERY = st.recursive(
    st.sampled_from(["x", "y", "z", "w"]).map(Leaf),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
    ),
    max_leaves=6,
)
# few settings, so that a later step often meets an entry an earlier one kept
WIDE = frozenset({RelationType.EQ, RelationType.ASSOC})
CACHE_CONFIG = st.sampled_from(
    [
        ExpansionConfig(),
        ExpansionConfig(relations=WIDE),
        ExpansionConfig(relations=WIDE, target_vocabs=frozenset({"b", "d"}), max_terms_per_leaf=1),
    ]
)
CACHE_STEP = st.one_of(st.tuples(st.just("add"), CACHE_ROW), st.tuples(st.just("expand"), CACHE_QUERY, CACHE_CONFIG))


@PROPERTY
@given(st.lists(CACHE_ROW, max_size=6), st.lists(CACHE_STEP, max_size=16))
@example(  # a combination kept for a leaf at the top, asked for where it no longer fits
    [("a", "x", RelationType.EQ, "b", ["y", "z"], RelevanceRating.HIGH)],
    [("expand", Leaf("x"), ExpansionConfig())],
)
@example(  # a row added after the leaf's expansion was kept
    [("a", "x", RelationType.EQ, "b", ["y"], RelevanceRating.HIGH)],
    [("expand", Leaf("x"), ExpansionConfig()), ("add", ("a", "x", RelationType.EQ, "b", ["z"], RelevanceRating.HIGH))],
)
def test_a_warm_expansion_cache_answers_as_a_fresh_store(loaded, steps):
    warm, rows, expanded = CrosswalkStore(VocabularyRegistry()), [], []

    def check(query, config):
        # the same leaves where a combination fits, where it no longer does, and where none expands
        for depth in (0, MAX_QUERY_DEPTH - 2, MAX_QUERY_DEPTH - 1):
            nested = query
            for _ in range(depth):
                nested = And((nested, Leaf("w")))
            fresh = CrosswalkStore(VocabularyRegistry())
            for row in rows:
                fresh.add_row(*row)
            assert expand_query(nested, warm, config) == expand_query(nested, fresh, config)

    for kind, *args in [("add", row) for row in loaded] + steps:
        if kind == "expand":
            expanded.append(args)
            check(*args)
            continue
        try:
            warm.add_row(*args[0])
        except KomoheError:  # a crosswalk into its own vocabulary, or a duplicate
            continue
        rows.append(args[0])
    for args in expanded:  # each again, over the rows added since
        check(*args)


# separators the two tokenizers must agree on: str.isspace counts U+001C as
# whitespace though Unicode's White_Space property does not; U+00A0 and
# U+3000 are spaces outside ASCII
KEYWORD = st.sampled_from(["and", "or", "not"]).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c, c.upper()]) for c in word)).map("".join)
)
TOKEN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["(", ")", '"', " ", "\x1c", "\xa0", "\u3000"]),
        KEYWORD,
        st.characters(categories=("L",)),
    ),
    max_size=16,
).map("".join)


@PROPERTY
@given(TOKEN_TEXT)
def test_tokenizer_matches_the_character_loop(text):
    try:
        expected = [(t.kind, t.value, t.position) for t in oracle_tokenize(text)]
    except QueryParseError as exc:
        with pytest.raises(QueryParseError) as raised:
            _tokenize(text)
        assert (str(raised.value), raised.value.position) == (str(exc), exc.position)
        return
    assert [(t.kind, t.value, t.position) for t in _tokenize(text)] == expected


@PROPERTY
@given(st.one_of(QUERY, TOKEN_TEXT))
def test_a_query_parses_back_or_fails_at_a_position_in_its_text(text):
    # the position is what the service's 400 answer carries
    try:
        ast = parse_query(text)
    except QueryParseError as exc:
        assert type(exc.position) is int and 0 <= exc.position <= len(text)
        return
    assert parse_query(render_query(ast)) == ast


def hop_rows(sources: list[str], targets: list[str]):
    """One crosswalk's distinct rows as (source, relation, target members, rating):
    null rows, single and two-member targets, and unrated rows among them."""
    positive = st.tuples(
        st.sampled_from(sources),
        st.sampled_from("=<>^"),
        st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True),
        st.sampled_from(["high", "medium", "low", ""]),
    )
    null = st.tuples(st.sampled_from(sources), st.just("0"), st.just([]), st.just(""))
    return st.lists(
        st.one_of(positive, null), min_size=1, max_size=25, unique_by=lambda r: (r[0], r[1], tuple(r[2]))
    )


# a3 -> (b0 or b1) -> c0 twice at different ratings; b3 is never a second-hop source
PIVOT_EXAMPLE = (
    [("a3", "=", ["b0"], "high"), ("a3", "=", ["b1"], "low"), ("a0", "<", ["b3"], "high"),
     ("a1", "0", [], ""), ("a2", "=", ["b0", "b1"], "high"), ("a1", "^", ["b1"], "")],
    [("b0", "=", ["c0"], "high"), ("b1", "=", ["c0"], "high"), ("b1", "<", ["c1", "c2"], "medium"),
     ("b2", "0", [], ""), ("b0", "^", ["c2"], "")],
)  # fmt: skip


@PROPERTY
@given(
    hop_rows(["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]),
    hop_rows(["b0", "b1", "b2"], ["c0", "c1", "c2"]),
)
@example(*PIVOT_EXAMPLE)
def test_infer_pivot_matches_a_brute_force_join(first_rows, second_rows):
    lines = ["#komohe-tsv v1"]
    for (source_vocab, target_vocab), rows in ((("a", "b"), first_rows), (("b", "c"), second_rows)):
        for source, relation, members, rating in rows:
            target = COMBINATION_JOIN.join(members)
            lines.append("\t".join((source_vocab, source, relation, target_vocab, target, rating)))
    store = Dataset.empty().store
    assert not store.import_tsv("\n".join(lines) + "\n").errors
    inferred = infer_pivot(store, "a", "c", "b")
    keys = [(m.source.terms[0], m.relation.value, m.target.terms[0]) for m in inferred]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # one row per (source, relation, target)
    got = {(m.source.terms, m.relation.value, m.target.terms, m.confidence) for m in inferred}
    assert got == brute_force_pivot(store, "a", "c", "b")
    assert {m.pivot_vocab for m in inferred} <= {"b"}


# "v0-a-t" sorts before "v0-t", so crosswalk id order is not source vocabulary order
VARIANT_SOURCES = ["v1", "v0", "v0-a"]
VARIANT_TERMS = ["q", "p"]  # few terms and targets, so equal targets are common
VARIANT_ROWS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(VARIANT_SOURCES),
            st.sampled_from(VARIANT_TERMS),
            st.sampled_from(["=", "=", "<", ">", "^"]),
            st.sampled_from(["t", "t", "u"]),  # rows into u must be left out
            st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=2, unique=True),
            st.sampled_from(["high", "low", ""]),
        ),
        st.tuples(
            st.sampled_from(VARIANT_SOURCES),
            st.sampled_from(VARIANT_TERMS),
            st.just("0"),
            st.sampled_from(["t", "u"]),
            st.just([]),
            st.just(""),
        ),
    ),
    max_size=30,
    unique_by=lambda r: (r[0], r[1], r[2], r[3], tuple(r[4])),
)

# terms drawn out of sorted order; q's targets agree as one shared Concept (v0, v1: x),
# as equal combinations (v0-a, v1: x + y), and across two loads (v0-a: x, loaded second)
VARIANT_EXAMPLE = (
    [("v1", "q", "=", "t", ["x"], "high"), ("v0", "q", "=", "t", ["x"], ""),
     ("v1", "q", "=", "t", ["x", "y"], "low"), ("v0-a", "q", "=", "t", ["x", "y"], "high"),
     ("v0", "p", "=", "t", ["y"], "high"), ("v1", "p", "=", "t", ["x"], "high"),
     ("v0-a", "p", "^", "t", ["y"], "high"), ("v0-a", "p", "0", "t", [], ""),
     ("v0-a", "q", "=", "t", ["x"], "low"), ("v0", "p", "=", "u", ["x"], "high")],
    8,
)  # fmt: skip


@PROPERTY
@given(VARIANT_ROWS, st.integers(min_value=0, max_value=30))
@example(*VARIANT_EXAMPLE)
def test_detect_variant_mappings_matches_a_brute_force_audit(rows, split):
    # two loads: a later load builds its own Concept for a term, so equal
    # targets come as one object, as two objects of one load (combinations)
    # and as objects of different loads
    store = Dataset.empty().store
    for part in (rows[:split], rows[split:]):
        lines = ["#komohe-tsv v1"]
        lines += [
            "\t".join((sv, source, relation, tv, COMBINATION_JOIN.join(members), rating))
            for sv, source, relation, tv, members, rating in part
        ]
        assert not store.import_tsv("\n".join(lines) + "\n").errors
    for target_vocab in ("t", "u"):
        conflicts = detect_variant_mappings(store, target_vocab)
        assert {c.target_vocab for c in conflicts} <= {target_vocab}
        got = [(c.term, c.vocab_pair, c.targets) for c in conflicts]
        assert got == brute_force_variants(store.crosswalks(), target_vocab)
