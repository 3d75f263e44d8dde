"""Vocabulary registry and the canonical term normalization used everywhere.

Every string that enters the mapping network goes through
:func:`normalize_term`, and lookups compare normalized keys only. A display
form equal to its key is that key object. The registry needs no lock: the
service's threads only read it once its load has finished (what they write
is the store's expansion cache, see store.py), and a writing command adds to
it from its one thread.
"""

from __future__ import annotations

import shlex
import unicodedata
from dataclasses import dataclass
from io import StringIO
from typing import IO, Iterable, Iterator
from urllib.parse import quote

from .errors import ConflictError, FormatError, InvalidTermError, NotFoundError

TERMS_HEADER = "#terms"
MAX_VOCAB_ID_BYTES = 245

# ISO 639-1 two-letter codes.
ISO_639_1 = frozenset(
    """
    aa ab ae af ak am an ar as av ay az ba be bg bh bi bm bn bo br bs ca ce
    ch co cr cs cu cv cy da de dv dz ee el en eo es et eu fa ff fi fj fo fr
    fy ga gd gl gn gu gv ha he hi ho hr ht hu hy hz ia id ie ig ii ik io is
    it iu ja jv ka kg ki kj kk kl km kn ko kr ks ku kv kw ky la lb lg li ln
    lo lt lu lv mg mh mi mk ml mn mr ms mt my na nb nd ne ng nl nn no nr nv
    ny oc oj om or os pa pi pl ps pt qu rm rn ro ru rw sa sc sd se sg si sk
    sl sm sn so sq sr ss st su sv sw ta te tg th ti tk tl tn to tr ts tt tw
    ty ug uk ur uz ve vi vo wa wo xh yi yo za zh zu
    """.split()
)


def normalize_term(raw: str) -> str:
    """Return the canonical lookup form of a term.

    Case-folds, applies Unicode canonical composition (NFC), strips
    leading/trailing whitespace, and collapses internal whitespace runs to
    single spaces. Idempotent: normalize_term(normalize_term(x)) ==
    normalize_term(x).

    Raises InvalidTermError for empty or whitespace-only input.
    """
    folded = unicodedata.normalize("NFC", raw.casefold())
    collapsed = " ".join(folded.split())
    if not collapsed:
        raise InvalidTermError("term is empty or whitespace-only")
    return collapsed


def numbered_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """(line number counted from `start`, text without the newline) of each data
    line. The one rule of every line format: blank and `#` lines are not data."""
    numbered = enumerate((line.rstrip("\n") for line in lines), start=start)
    return ((n, line) for n, line in numbered if line.strip() and not line.startswith("#"))


def read_numbered_lines(
    stream: IO[str] | Iterable[str] | str, expected_header: str
) -> tuple[str, Iterator[tuple[int, str]]]:
    """Split a line-oriented file into its header (line 1) and the numbered_lines
    after it. Raises FormatError naming `expected_header` if the stream is empty."""
    lines = iter(StringIO(stream) if isinstance(stream, str) else stream)
    header = next(lines, None)
    if header is None:
        raise FormatError(f"empty stream; expected {expected_header!r} header")
    return header.rstrip("\n"), numbered_lines(lines, start=2)


def _validate_vocab_id(vocab_id: str) -> None:
    if not vocab_id:
        raise InvalidTermError("vocabulary id must be non-empty")
    if any(ch.isspace() for ch in vocab_id):
        raise InvalidTermError(f"vocabulary id {vocab_id!r} contains whitespace")
    if vocab_id.startswith("#"):
        # its crosswalk rows would read back as comments
        raise InvalidTermError(f"vocabulary id {vocab_id!r} starts with '#'")
    if len(quote(vocab_id, safe="")) > MAX_VOCAB_ID_BYTES:
        # its term list's file name, `<quoted id>.terms`, must fit in 255 bytes
        raise InvalidTermError(
            f"vocabulary id {vocab_id!r} is longer than {MAX_VOCAB_ID_BYTES} bytes percent-encoded"
        )


@dataclass
class Vocabulary:
    """A named controlled vocabulary (thesaurus, classification, ...)."""

    id: str
    name: str = ""
    language: str = "en"
    discipline: str = ""

    def __post_init__(self) -> None:
        _validate_vocab_id(self.id)
        if self.language not in ISO_639_1:
            raise InvalidTermError(
                f"language {self.language!r} is not a two-letter ISO 639-1 code"
            )
        for key, text in (("name", self.name), ("discipline", self.discipline)):
            # the term-list header that keeps it is one line
            if "".join(text.splitlines()) != text:
                raise InvalidTermError(f"vocabulary {key} {text!r} contains a line break")
        if not self.name:
            self.name = self.id


@dataclass(frozen=True, slots=True)
class Term:
    """A single controlled term: normalized lookup key plus original display form."""

    normalized: str
    display: str


class VocabularyRegistry:
    """Owns vocabularies and their term lists."""

    def __init__(self) -> None:
        self._vocabularies: dict[str, Vocabulary] = {}
        self._terms: dict[str, dict[str, Term]] = {}

    def register_vocabulary(self, vocabulary: Vocabulary) -> None:
        """Register a new vocabulary.

        Raises ConflictError if the id is already taken.
        """
        if vocabulary.id in self._vocabularies:
            raise ConflictError(f"vocabulary {vocabulary.id!r} already registered")
        self._vocabularies[vocabulary.id] = vocabulary
        self._terms[vocabulary.id] = {}

    def vocabulary(self, vocab_id: str) -> Vocabulary:
        try:
            return self._vocabularies[vocab_id]
        except KeyError:
            raise NotFoundError(f"unknown vocabulary {vocab_id!r}") from None

    def has_vocabulary(self, vocab_id: str) -> bool:
        return vocab_id in self._vocabularies

    def vocabularies(self) -> list[Vocabulary]:
        return sorted(self._vocabularies.values(), key=lambda v: v.id)

    def vocabularies_by_language(self, language: str) -> list[Vocabulary]:
        return [v for v in self.vocabularies() if v.language == language]

    def term_count(self, vocab_id: str) -> int:
        """Number of distinct normalized terms stored for the vocabulary."""
        self.vocabulary(vocab_id)
        return len(self._terms[vocab_id])

    def add_term(self, vocab_id: str, display: str) -> Term:
        """Store a term under its normalized key.

        Re-adding a term whose normalized form already exists is a no-op
        returning the stored term; the first display form wins.
        """
        return self.intern_term(vocab_id, normalize_term(display), display)

    def intern_term(self, vocab_id: str, normalized: str, display: str) -> Term:
        """add_term for a caller that already holds normalize_term(display)."""
        self.vocabulary(vocab_id)
        terms = self._terms[vocab_id]
        existing = terms.get(normalized)
        if existing is not None:
            return existing
        # Outer whitespace and line breaks would not survive a term-list
        # save and reload; other inner spacing is part of the display form.
        # A key holds neither, so a display equal to it needs no clean-up.
        if display != normalized:
            display = " ".join(display.strip().splitlines())
        display = normalized if display == normalized else display  # one object for both
        term = Term(normalized=normalized, display=display)
        terms[normalized] = term
        return term

    def lookup_term(self, vocab_id: str, raw: str) -> Term | None:
        """Find a term by any orthographic variant of its normalized form."""
        self.vocabulary(vocab_id)
        terms = self._terms[vocab_id]
        # a stored key is its own normal form, so only a string that is no key is normalized
        return terms[raw] if raw in terms else terms.get(normalize_term(raw))

    def term(self, vocab_id: str, normalized: str) -> Term | None:
        """The term stored under a normalized key; None also for an unknown vocabulary."""
        terms = self._terms.get(vocab_id)
        return None if terms is None else terms.get(normalized)

    def terms(self, vocab_id: str) -> list[Term]:
        """All terms of a vocabulary, sorted by normalized key."""
        self.vocabulary(vocab_id)
        return [self._terms[vocab_id][k] for k in sorted(self._terms[vocab_id])]

    # ------------------------------------------------------------------
    # Term-list files: UTF-8, LF-terminated, one display term per line.
    # Line 1 is `#terms <vocab-id>`, optionally followed by key=value
    # metadata (lang=, name=, discipline=), shell-quoted. Blank lines and `#`
    # lines after the header are ignored; outer whitespace on a line is not
    # part of the term.
    # ------------------------------------------------------------------

    def import_terms(self, stream: IO[str] | Iterable[str], vocab_id: str | None = None) -> int:
        """Load a term-list file; returns the number of terms added.

        Auto-registers the vocabulary named in the header. If `vocab_id` is
        given it must match the header.
        """
        header, lines = read_numbered_lines(stream, f"{TERMS_HEADER} <vocab-id>")
        try:
            fields = shlex.split(header)
        except ValueError as exc:  # an unclosed quote or a trailing escape
            raise FormatError(f"bad term-list header {header!r}: {exc}") from None
        if len(fields) < 2 or fields[0] != TERMS_HEADER:
            raise FormatError(f"bad term-list header {header!r}")
        file_vocab = fields[1]
        if vocab_id is not None and vocab_id != file_vocab:
            raise FormatError(f"term list is for vocabulary {file_vocab!r}, not {vocab_id!r}")
        unknown = [f for f in fields[2:] if not f.startswith(("lang=", "name=", "discipline="))]
        if unknown:
            raise FormatError(f"unknown term-list header token {unknown[0]!r}")
        meta = dict(f.split("=", 1) for f in fields[2:])
        if not self.has_vocabulary(file_vocab):
            self.register_vocabulary(
                Vocabulary(
                    id=file_vocab,
                    name=meta.get("name", ""),
                    language=meta.get("lang", "en"),
                    discipline=meta.get("discipline", ""),
                )
            )
        before = self.term_count(file_vocab)
        for _, line in lines:
            self.add_term(file_vocab, line)
        return self.term_count(file_vocab) - before

    def export_terms(self, vocab_id: str) -> str:
        """Render a vocabulary as a term-list file (display forms, sorted by key)."""
        vocab = self.vocabulary(vocab_id)
        header = f"{TERMS_HEADER} {shlex.quote(vocab.id)} lang={vocab.language}"
        if vocab.name and vocab.name != vocab.id:
            header += f" name={shlex.quote(vocab.name)}"
        if vocab.discipline:
            header += f" discipline={shlex.quote(vocab.discipline)}"
        lines = [header]
        # a leading space, trimmed on reload, keeps `#...` from reading as a comment
        lines.extend(
            f" {term.display}" if term.display.startswith("#") else term.display
            for term in self.terms(vocab_id)
        )
        return "\n".join(lines) + "\n"
