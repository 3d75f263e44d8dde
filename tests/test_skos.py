import gc
import io
import re
from urllib.parse import quote

import pytest

from komohe import skos
from komohe.errors import InvalidMappingError
from komohe.service import Dataset
from komohe.skos import (
    SKOS_NS,
    concept_uri,
    export_skos,
    import_skos,
    parse_concept_uri,
)
from komohe.store import RelationType, RelevanceRating

NT_LINE = re.compile(r"^<[^<>\s]+> <[^<>\s]+> <[^<>\s]+> \.$")


class TestUris:
    def test_simple(self):
        assert concept_uri("swd", "hacker") == "urn:kos:swd:hacker"

    def test_percent_encoding(self):
        uri = concept_uri("swd", "isdn device")
        assert uri == "urn:kos:swd:isdn%20device"
        assert parse_concept_uri(uri) == ("swd", "isdn device")

    def test_unicode_round_trip(self):
        for term in ("straße", "café", "наука"):
            vocab, back = parse_concept_uri(concept_uri("v", term))
            assert (vocab, back) == ("v", term)

    def test_colon_in_term_round_trips(self):
        uri = concept_uri("v", "a:b")
        assert "%3A" in uri
        assert parse_concept_uri(uri) == ("v", "a:b")


class TestExport:
    def test_sixrow_predicates(self, sixrow):
        export = export_skos(sixrow.store)
        assert export.skipped_null == 1
        assert export.skipped_combination == 2
        lines = export.text.splitlines()
        assert lines == sorted(lines)
        assert export.text.count("\n") == 3
        for line in lines:
            assert NT_LINE.match(line), line
        joined = export.text
        assert f"<{SKOS_NS}exactMatch>" in joined
        assert f"<{SKOS_NS}broadMatch>" in joined
        assert f"<{SKOS_NS}narrowMatch>" in joined
        assert "urn:kos:A:hacker" in joined
        assert "urn:kos:B:hacking" in joined

    def test_related_match(self):
        data = Dataset.empty()
        data.store.import_tsv("#komohe-tsv v1\na\tx\t^\tb\ty\tlow\n")
        export = export_skos(data.store)
        assert f"<{SKOS_NS}relatedMatch>" in export.text

    def test_crosswalk_selection(self, bilingual):
        export = export_skos(bilingual.store, ["thesoz-elsst"])
        assert "urn:kos:cabt:" not in export.text
        assert export.text.count("\n") == 2


class TestExportQuoting:
    # vocabulary ids and terms that percent-encoding changes
    IDS = ("a>b", "%", "é")
    TERMS = ("x", "y z", "ü:1")

    @pytest.fixture
    def escaped(self):
        data = Dataset.empty()
        for source in self.IDS:
            for target in self.IDS:
                if source != target:
                    for term in self.TERMS:
                        data.store.add_row(
                            source, term, RelationType.EQ, target, [term], RelevanceRating.HIGH
                        )
        return data

    def test_uris_match_concept_uri(self, escaped):
        expected = sorted(
            f"<{concept_uri(cw.source_vocab, m.source.terms[0])}> <{SKOS_NS}exactMatch> "
            f"<{concept_uri(cw.target_vocab, m.target.terms[0])}> .\n"
            for cw in escaped.store.crosswalks()
            for m in cw.mappings
        )
        text = export_skos(escaped.store).text
        assert text == "".join(expected)
        exact = f"<{SKOS_NS}exactMatch>"
        assert f"<urn:kos:a%3Eb:y%20z> {exact} <urn:kos:%25:y%20z> .\n" in text
        assert f"<urn:kos:%C3%A9:%C3%BC%3A1> {exact} <urn:kos:a%3Eb:%C3%BC%3A1> .\n" in text

    def test_each_vocabulary_id_is_quoted_once_per_crosswalk(self, escaped, monkeypatch):
        calls = []

        def counting_quote(text, *args, **kwargs):
            calls.append(text)
            return quote(text, *args, **kwargs)

        monkeypatch.setattr(skos, "quote", counting_quote)
        export = export_skos(escaped.store)
        crosswalks = len(escaped.store.crosswalks())
        assert export.text.count("\n") == crosswalks * len(self.TERMS)
        # one per side per crosswalk, plus one per source and target term
        assert len(calls) <= 2 * crosswalks + 2 * export.text.count("\n")


class TestImport:
    def test_round_trip_single_non_null(self, sixrow):
        export = export_skos(sixrow.store, ["A-B"])
        fresh = Dataset.empty()
        report = import_skos(fresh.store, io.StringIO(export.text), "A", "B")
        assert report.mappings_added == 3
        assert not report.errors

        again = export_skos(fresh.store, ["A-B"])
        assert again.text == export.text

    def test_empty_stream_no_side_effects(self):
        data = Dataset.empty()
        report = import_skos(data.store, io.StringIO(""), "a", "b")
        assert report.mappings_added == 0
        assert not data.registry.has_vocabulary("a")
        assert data.store.crosswalks() == []

    def test_unknown_predicate_skipped(self):
        data = Dataset.empty()
        text = (
            f"<urn:kos:a:x> <{SKOS_NS}closeMatch> <urn:kos:b:y> .\n"
            f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        )
        report = import_skos(data.store, io.StringIO(text), "a", "b")
        assert report.mappings_added == 1
        assert report.errors == [(1, f"skipped predicate {SKOS_NS}closeMatch")]

    def test_vocab_mismatch_is_line_error(self):
        data = Dataset.empty()
        text = f"<urn:kos:other:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        report = import_skos(data.store, io.StringIO(text), "a", "b")
        assert report.mappings_added == 0
        assert len(report.errors) == 1
        assert "other" in report.errors[0][1]

    @pytest.mark.parametrize(
        "subject, obj, reason",
        [
            ("http://example.org/x", "urn:kos:b:y", "not a urn:kos: URI: 'http://example.org/x'"),
            ("urn:kos:a:x", "urn:kos:b", "malformed concept URI 'urn:kos:b'"),
        ],
    )
    def test_bad_concept_uri_is_line_error(self, subject, obj, reason):
        data = Dataset.empty()
        text = (
            f"<urn:kos:a:w> <{SKOS_NS}exactMatch> <urn:kos:b:v> .\n"
            f"<{subject}> <{SKOS_NS}exactMatch> <{obj}> .\n"
            f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        )
        report = import_skos(data.store, io.StringIO(text), "a", "b")
        assert report.mappings_added == 2
        assert report.errors == [(2, reason)]

    def test_garbage_line_is_line_error(self):
        data = Dataset.empty()
        text = (
            "this is not ntriples\n"
            f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        )
        report = import_skos(data.store, io.StringIO(text), "a", "b")
        assert report.mappings_added == 1
        assert [no for no, _ in report.errors] == [1]

    def test_duplicate_triple_is_line_error(self):
        data = Dataset.empty()
        line = f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        report = import_skos(data.store, io.StringIO(line + line), "a", "b")
        assert report.mappings_added == 1
        assert len(report.errors) == 1

    @pytest.mark.parametrize(
        "subject, accepted, reason",
        [
            # not how concept_uri spells `a`, but parse_concept_uri reads it as `a`
            ("urn:kos:%61:q", True, None),
            ("urn:kos:a:x:y", False, "URI vocabularies 'a:x'->'b' do not match requested crosswalk 'a'->'b'"),
            ("urn:kos:a:", False, "malformed concept URI 'urn:kos:a:'"),
            ("urn:kos:a::", False, "malformed concept URI 'urn:kos:a::'"),
            ("urn:kos:a:x%3Ay%20%c3%a9%zz%", True, None),
        ],
    )
    def test_uri_not_as_concept_uri_writes_it_reads_as_parse_concept_uri_reads_it(
        self, subject, accepted, reason
    ):
        data = Dataset.empty()
        text = f"<{subject}> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        report = import_skos(data.store, text, "a", "b")
        assert report.errors == ([] if accepted else [(1, reason)])
        if accepted:
            (mapping,) = data.store.crosswalk("a-b").mappings
            assert mapping.source.terms == (parse_concept_uri(subject)[1],)

    def test_equal_vocabularies_are_rejected_before_any_line_is_read(self):
        data = Dataset.empty()
        read = []

        def lines():
            read.append(True)
            yield f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:a:y> .\n"

        with pytest.raises(InvalidMappingError, match="crosswalk source and target must differ"):
            import_skos(data.store, lines(), "a", "a")
        assert read == []
        assert data.registry.vocabularies() == [] and data.store.crosswalks() == []

    def test_comments_and_blanks_ignored(self):
        data = Dataset.empty()
        text = (
            "# comment\n"
            "\n"
            f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n"
        )
        report = import_skos(data.store, io.StringIO(text), "a", "b")
        assert report.mappings_added == 1
        assert not report.errors


class TestImportLeavesGcAsFound:
    LINES = [
        f"<urn:kos:a:x> <{SKOS_NS}exactMatch> <urn:kos:b:y> .\n",
        f"<urn:kos:a:z> <{SKOS_NS}broadMatch> <urn:kos:b:w> .\n",
    ]

    @pytest.fixture(autouse=True)
    def gc_back_on(self):
        yield
        gc.enable()

    def test_enabled_stays_enabled(self):
        gc.enable()
        assert import_skos(Dataset.empty().store, "".join(self.LINES), "a", "b").mappings_added == 2
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        assert import_skos(Dataset.empty().store, "".join(self.LINES), "a", "b").mappings_added == 2
        assert not gc.isenabled()

    def test_enabled_again_when_the_stream_fails(self):
        enabled_while_reading = []

        def failing_stream():
            yield self.LINES[0]
            enabled_while_reading.append(gc.isenabled())
            yield self.LINES[1]
            raise OSError("read failed")

        gc.enable()
        data = Dataset.empty()
        with pytest.raises(OSError, match="read failed"):
            import_skos(data.store, failing_stream(), "a", "b")
        assert gc.isenabled()
        assert enabled_while_reading == [False]
        assert len(data.store.crosswalk("a-b").mappings) == 2


class TestJoinInTerm:
    def test_target_term_with_join_is_a_line_error(self):
        dataset = Dataset.empty()
        text = f"<urn:kos:A:x> <{SKOS_NS}exactMatch> <urn:kos:B:a%20%2B%20b> .\n"
        report = import_skos(dataset.store, text, "A", "B")
        assert report.mappings_added == 0
        assert [line_no for line_no, _ in report.errors] == [1]
        # the line was rejected before anything was registered
        assert dataset.registry.vocabularies() == []
        assert dataset.store.crosswalks() == []
