"""SKOS mapping exchange as line-oriented N-Triples.

Crosswalk relations map onto the four SKOS mapping predicates; null
mappings and combination targets have no SKOS counterpart and are skipped
(counted in the export report). On import, a triple with any other
predicate is a rejected line, reported as `skipped predicate <uri>`.
Concept URIs are derived from the registry: `urn:kos:<vocab id>:<normalized
term>`, both parts percent-encoded.
Relevance ratings carry no standard SKOS property and are dropped; imports
come back unrated. TSV stays the lossless format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from io import StringIO
from typing import IO, Iterable
from urllib.parse import quote, unquote

from .errors import FormatError, InvalidMappingError, InvalidTermError
from .registry import numbered_lines
from .store import CrosswalkStore, ImportReport, RelationType, RelevanceRating, check_crosswalk_ends

SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
URN_PREFIX = "urn:kos:"

RELATION_TO_PREDICATE = {
    RelationType.EQ: SKOS_NS + "exactMatch",
    RelationType.BROADER_TARGET: SKOS_NS + "broadMatch",
    RelationType.NARROWER_TARGET: SKOS_NS + "narrowMatch",
    RelationType.ASSOC: SKOS_NS + "relatedMatch",
}
PREDICATE_TO_RELATION = {v: k for k, v in RELATION_TO_PREDICATE.items()}

_UNRATED = RelevanceRating.UNRATED
_TRIPLE_RE = re.compile(r"^<([^<>]*)>\s+<([^<>]*)>\s+<([^<>]*)>\s*\.$")

# quote(chr(i), safe="") for each ASCII code point i, so str.translate quotes
# an ASCII text in one C call where quote takes a Python step per byte
_QUOTED_ASCII = [quote(chr(i), safe="") for i in range(128)]
_HEX_DIGITS = "0123456789ABCDEFabcdef"
# the byte each `%XX` escape stands for, as a Latin-1 character, either case
# of hex digit; computed, not unquoted, so that urllib builds its own escape
# tables only for a text that needs unquote
_UNQUOTED_BYTES = {a + b: chr(int(a + b, 16)) for a in _HEX_DIGITS for b in _HEX_DIGITS}


def _quote(text: str) -> str:
    """quote(text, safe=""), in C for an ASCII text."""
    return text.translate(_QUOTED_ASCII) if text.isascii() else quote(text, safe="")


def _unquote(text: str) -> str:
    """unquote(text), read from a table for an ASCII text, as every quoted URI
    is: each `%XX` becomes its byte, a `%` that starts none stays, and the bytes
    are read as UTF-8, bad sequences replaced. Any other text goes to unquote."""
    if "%" not in text:
        return text
    if not text.isascii():
        return unquote(text)
    parts = text.split("%")
    for i in range(1, len(parts)):
        part = parts[i]
        byte = _UNQUOTED_BYTES.get(part[:2])
        parts[i] = "%" + part if byte is None else byte + part[2:]
    text = "".join(parts)
    return text if text.isascii() else text.encode("latin-1").decode("utf-8", "replace")


def _uri_prefix(vocab_id: str) -> str:
    """The `urn:kos:<vocab id>:` part every concept URI of a vocabulary shares."""
    return f"{URN_PREFIX}{_quote(vocab_id)}:"


def concept_uri(vocab_id: str, term: str) -> str:
    """URN for a single-term concept; the id and the term are fully percent-encoded."""
    return _uri_prefix(vocab_id) + _quote(term)


def parse_concept_uri(uri: str) -> tuple[str, str]:
    """Inverse of concept_uri; returns (vocab id, normalized term)."""
    if not uri.startswith(URN_PREFIX):
        raise InvalidTermError(f"not a {URN_PREFIX} URI: {uri!r}")
    rest = uri[len(URN_PREFIX) :]
    vocab_id, sep, encoded = rest.rpartition(":")
    if not sep or not vocab_id or not encoded:
        raise InvalidTermError(f"malformed concept URI {uri!r}")
    return unquote(vocab_id), unquote(encoded)


def _prefix_naming(vocab_id: str) -> str | None:
    """The URI prefix parse_concept_uri reads back as `vocab_id`; None when no
    URI names it: the id is empty, or holds a lone surrogate, which quote rejects."""
    try:
        return _uri_prefix(vocab_id) if vocab_id else None
    except UnicodeEncodeError:
        return None


def _read_uri(uri: str, prefix: str | None, vocab_id: str) -> tuple[str, str]:
    """parse_concept_uri(uri), where `prefix` is _prefix_naming(vocab_id). After
    that prefix, a non-empty rest with no `:` is where parse_concept_uri would
    split the URI, so only the rest is unquoted; any other URI goes to it."""
    if prefix is not None and uri.startswith(prefix):
        encoded = uri[len(prefix) :]
        if encoded and ":" not in encoded:
            return vocab_id, _unquote(encoded)
    return parse_concept_uri(uri)


@dataclass
class SkosExport:
    text: str
    skipped_null: int = 0
    skipped_combination: int = 0


def export_skos(store: CrosswalkStore, crosswalk_ids: Iterable[str] | None = None) -> SkosExport:
    """Render crosswalks as N-Triples, one line per representable mapping.

    Lines are sorted by subject URI (then predicate and object) so output
    is reproducible. Null and combination-target mappings are counted in
    the report instead of emitted.
    """
    export = SkosExport(text="")
    triples: list[tuple[str, str, str]] = []
    for crosswalk in store.crosswalks(crosswalk_ids):
        source_prefix = _uri_prefix(crosswalk.source_vocab)
        target_prefix = _uri_prefix(crosswalk.target_vocab)
        for mapping in crosswalk.mappings:
            if mapping.target is None:
                export.skipped_null += 1
                continue
            if not mapping.target.is_single:
                export.skipped_combination += 1
                continue
            triples.append(
                (
                    source_prefix + _quote(mapping.source.terms[0]),
                    RELATION_TO_PREDICATE[mapping.relation],
                    target_prefix + _quote(mapping.target.terms[0]),
                )
            )
    triples.sort()
    export.text = "".join(f"<{s}> <{p}> <{o}> .\n" for s, p, o in triples)
    return export


def import_skos(
    store: CrosswalkStore,
    stream: IO[str] | str,
    source_vocab: str,
    target_vocab: str,
) -> ImportReport:
    """Read N-Triples into one crosswalk; imported mappings are unrated.

    Each line is stored or reported in `errors` with its reason: a malformed
    line, a URI naming another vocabulary, or a predicate outside the four
    mapping predicates (`skipped predicate <uri>`). Equal vocabularies raise
    InvalidMappingError before any line is read.
    """
    check_crosswalk_ends(source_vocab, target_vocab)
    lines = StringIO(stream) if isinstance(stream, str) else stream
    source_prefix, target_prefix = _prefix_naming(source_vocab), _prefix_naming(target_vocab)

    def parse(line: str) -> tuple:
        match = _TRIPLE_RE.match(line)
        if match is None:
            raise FormatError(f"malformed triple: {line!r}")
        subject, predicate, obj = match.groups()
        if (relation := PREDICATE_TO_RELATION.get(predicate)) is None:
            raise FormatError(f"skipped predicate {predicate}")
        subject_vocab, source_term = _read_uri(subject, source_prefix, source_vocab)
        object_vocab, target_term = _read_uri(obj, target_prefix, target_vocab)
        if subject_vocab != source_vocab or object_vocab != target_vocab:
            raise InvalidMappingError(
                f"URI vocabularies {subject_vocab!r}->{object_vocab!r} do not "
                f"match requested crosswalk {source_vocab!r}->{target_vocab!r}"
            )
        return source_vocab, source_term, relation, target_vocab, [target_term], _UNRATED

    # stripped first, so an indented `# ...` line is a comment too
    return store.load_rows(numbered_lines(raw.strip() for raw in lines), parse)
