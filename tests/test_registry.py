import io
import random
import re
import unicodedata

import pytest

from komohe.errors import ConflictError, FormatError, InvalidTermError, NotFoundError
from komohe.registry import Term, Vocabulary, VocabularyRegistry, normalize_term


class TestNormalizeTerm:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_term("  ISDN   Device ") == "isdn device"
        assert normalize_term("Hacker") == "hacker"
        assert normalize_term("a\tb\n c") == "a b c"

    def test_casefold_not_just_lower(self):
        # sharp s folds to "ss", which plain lower() would miss
        assert normalize_term("STRASSE") == normalize_term("Straße")

    def test_unicode_composition(self):
        decomposed = "Café"  # e + combining acute
        composed = "Café"
        assert normalize_term(decomposed) == normalize_term(composed)
        assert unicodedata.is_normalized("NFC", normalize_term(decomposed))

    def test_idempotent_on_random_strings(self):
        rng = random.Random(42)
        pool = (
            "abcXYZ ßİıΐẞ́̈ÅÅ"
            "ı中文 \t "
        )
        for _ in range(2000):
            raw = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
            try:
                once = normalize_term(raw)
            except InvalidTermError:
                continue
            assert normalize_term(once) == once

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_rejects_blank(self, raw):
        with pytest.raises(InvalidTermError):
            normalize_term(raw)


class TestVocabulary:
    def test_name_defaults_to_id(self):
        v = Vocabulary("thesoz")
        assert v.name == "thesoz"
        assert v.language == "en"

    def test_rejects_whitespace_in_id(self):
        with pytest.raises(InvalidTermError):
            Vocabulary("bad id")
        with pytest.raises(InvalidTermError):
            Vocabulary("")

    def test_rejects_leading_hash_in_id(self):
        # a TSV row starting with `#` is a comment, so such an id would not reload
        with pytest.raises(InvalidTermError):
            Vocabulary("#x")
        assert Vocabulary("x#").id == "x#"

    def test_rejects_an_id_too_long_for_its_term_list_file_name(self):
        # `<percent-encoded id>.terms` must fit in 255 bytes
        assert Vocabulary("a" * 245).id == "a" * 245
        with pytest.raises(InvalidTermError, match="longer than 245 bytes"):
            Vocabulary("a" * 246)
        with pytest.raises(InvalidTermError):
            Vocabulary("é" * 41)  # 41 x %C3%A9: 246 bytes
        assert Vocabulary("é" * 40).id == "é" * 40

    def test_rejects_unknown_language_code(self):
        with pytest.raises(InvalidTermError):
            Vocabulary("x", language="zz")
        with pytest.raises(InvalidTermError):
            Vocabulary("x", language="eng")  # ISO 639-1 only, two letters
        Vocabulary("x", language="de")
        Vocabulary("x", language="ru")

    @pytest.mark.parametrize(
        "text", ["Sach\nwort", "Sach\r\nwort", "Sachwort\n", "a\u2028b", "a\x85b"]
    )
    def test_rejects_line_break_in_name_or_discipline(self, text):
        # a term-list header is one line, so such metadata would not reload
        with pytest.raises(InvalidTermError, match="line break"):
            Vocabulary("x", name=text)
        with pytest.raises(InvalidTermError, match="line break"):
            Vocabulary("x", discipline=text)
        assert Vocabulary("x", name="Sach wort\t'quoted'").name == "Sach wort\t'quoted'"


class TestRegistry:
    def test_register_and_fetch(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a", name="Vocab A", discipline="socsci"))
        assert reg.has_vocabulary("a")
        assert reg.vocabulary("a").name == "Vocab A"
        assert [v.id for v in reg.vocabularies()] == ["a"]

    def test_duplicate_registration_conflicts(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        with pytest.raises(ConflictError):
            reg.register_vocabulary(Vocabulary("a", language="de"))

    def test_unknown_vocabulary_raises(self):
        reg = VocabularyRegistry()
        with pytest.raises(NotFoundError):
            reg.vocabulary("nope")
        with pytest.raises(NotFoundError):
            reg.terms("nope")

    def test_display_equal_to_its_key_is_the_key_object(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        plain = reg.add_term("a", "crime")
        assert plain.display is plain.normalized
        spaced = reg.add_term("a", "  data  privacy\n")  # trimmed to a different display form
        assert spaced.display == "data  privacy" and spaced.normalized == "data privacy"
        cased = reg.intern_term("a", "hacker", "hacker ")  # trimmed to the key itself
        assert cased.display is cased.normalized

    def test_by_language(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a", language="de"))
        reg.register_vocabulary(Vocabulary("b", language="en"))
        reg.register_vocabulary(Vocabulary("c", language="de"))
        assert [v.id for v in reg.vocabularies_by_language("de")] == ["a", "c"]

    def test_add_term_keeps_display_form(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        term = reg.add_term("a", "  Information  Science ")
        assert term == Term("information science", "Information  Science")
        found = reg.lookup_term("a", "INFORMATION   SCIENCE")
        assert found is term

    def test_add_term_idempotent_on_normalized_key(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        first = reg.add_term("a", "Hacker")
        second = reg.add_term("a", "HACKER")
        assert first is second
        assert reg.term_count("a") == 1

    def test_lookup_missing_term_returns_none(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("a"))
        assert reg.lookup_term("a", "ghost") is None

    def test_term_in_unknown_vocab_raises(self):
        reg = VocabularyRegistry()
        with pytest.raises(NotFoundError):
            reg.add_term("a", "x")
        with pytest.raises(NotFoundError):
            reg.lookup_term("a", "x")


class TestTermFiles:
    def test_import_plain_list(self):
        reg = VocabularyRegistry()
        added = reg.import_terms(io.StringIO("#terms swd\nInformatik\nSoziologie\n"))
        assert added == 2
        assert reg.has_vocabulary("swd")
        assert [t.normalized for t in reg.terms("swd")] == ["informatik", "soziologie"]

    def test_import_header_metadata(self):
        text = '#terms swd lang=de name="Schlagwortnormdatei" discipline=universal\nBildung\n'
        reg = VocabularyRegistry()
        reg.import_terms(io.StringIO(text))
        vocab = reg.vocabulary("swd")
        assert vocab.language == "de"
        assert vocab.name == "Schlagwortnormdatei"
        assert vocab.discipline == "universal"

    @pytest.mark.parametrize("token", ["language=de", "nam=X", "de", "lang"])
    def test_import_rejects_unknown_header_tokens(self, token):
        reg = VocabularyRegistry()
        with pytest.raises(FormatError, match=f"unknown term-list header token '{token}'"):
            reg.import_terms(io.StringIO(f"#terms swd lang=de {token}\nBildung\n"))
        assert not reg.has_vocabulary("swd")

    def test_import_skips_comments_blanks_and_duplicates(self):
        text = "#terms a\n\n# comment\nHacker\nhacker\nHACKER\n"
        reg = VocabularyRegistry()
        assert reg.import_terms(io.StringIO(text)) == 1

    @pytest.mark.parametrize("header", ['#terms "swd', "#terms swd name='x", "#terms swd \\"])
    def test_import_header_shell_syntax_error_is_format_error(self, header):
        reg = VocabularyRegistry()
        with pytest.raises(FormatError, match=f"bad term-list header {re.escape(repr(header))}"):
            reg.import_terms(io.StringIO(f"{header}\nBildung\n"))
        assert reg.vocabularies() == []

    def test_import_vocab_mismatch(self):
        reg = VocabularyRegistry()
        with pytest.raises(Exception) as exc:
            reg.import_terms(io.StringIO("#terms a\nx\n"), vocab_id="b")
        assert "a" in str(exc.value)

    def test_import_missing_header(self):
        reg = VocabularyRegistry()
        with pytest.raises(Exception):
            reg.import_terms(io.StringIO("just a term\n"))

    def test_export_round_trip(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary("swd", language="de", name="SWD"))
        reg.add_term("swd", "Soziologie")
        reg.add_term("swd", "Bildung")
        text = reg.export_terms("swd")

        other = VocabularyRegistry()
        other.import_terms(io.StringIO(text))
        assert other.vocabulary("swd").language == "de"
        assert [t.display for t in other.terms("swd")] == [
            t.display for t in reg.terms("swd")
        ]

    def test_export_reloads_quoted_ids_and_awkward_display_forms(self):
        reg = VocabularyRegistry()
        reg.register_vocabulary(Vocabulary('a"b'))
        for display in ["#Hashtag", "  #Spaced", "Two\nLines", "Crlf\r\nEnd", "plain"]:
            reg.add_term('a"b', display)
        assert reg.lookup_term('a"b', "two lines").display == "Two Lines"
        other = VocabularyRegistry()
        other.import_terms(io.StringIO(reg.export_terms('a"b')))
        assert [(t.normalized, t.display) for t in other.terms('a"b')] == [
            (t.normalized, t.display) for t in reg.terms('a"b')
        ]
