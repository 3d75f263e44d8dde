"""SKOS mapping exchange as line-oriented N-Triples.

Crosswalk relations map onto the four SKOS mapping predicates; null
mappings and combination targets have no SKOS counterpart and are skipped
(counted in the export report). Concept URIs are derived from the registry:
`urn:kos:<vocab id>:<normalized term>`, both parts percent-encoded.
Relevance ratings carry no standard SKOS property and are dropped; imports
come back unrated. TSV stays the lossless format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from io import StringIO
from typing import IO, Iterable
from urllib.parse import quote, unquote

from .errors import FormatError, InvalidMappingError, InvalidTermError
from .registry import numbered_lines
from .store import CrosswalkStore, ImportReport, RelationType, RelevanceRating

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


def _uri_prefix(vocab_id: str) -> str:
    """The `urn:kos:<vocab id>:` part every concept URI of a vocabulary shares."""
    return f"{URN_PREFIX}{quote(vocab_id, safe='')}:"


def concept_uri(vocab_id: str, term: str) -> str:
    """URN for a single-term concept; the id and the term are fully percent-encoded."""
    return _uri_prefix(vocab_id) + quote(term, safe="")


def parse_concept_uri(uri: str) -> tuple[str, str]:
    """Inverse of concept_uri; returns (vocab id, normalized term)."""
    if not uri.startswith(URN_PREFIX):
        raise InvalidTermError(f"not a {URN_PREFIX} URI: {uri!r}")
    rest = uri[len(URN_PREFIX) :]
    vocab_id, sep, encoded = rest.rpartition(":")
    if not sep or not vocab_id or not encoded:
        raise InvalidTermError(f"malformed concept URI {uri!r}")
    return unquote(vocab_id), unquote(encoded)


@dataclass
class SkosExport:
    text: str
    skipped_null: int = 0
    skipped_combination: int = 0


@dataclass
class SkosImportReport(ImportReport):
    skipped_predicates: list[tuple[int, str]] = field(default_factory=list)


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
                    source_prefix + quote(mapping.source.terms[0], safe=""),
                    RELATION_TO_PREDICATE[mapping.relation],
                    target_prefix + quote(mapping.target.terms[0], safe=""),
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
) -> SkosImportReport:
    """Read N-Triples into one crosswalk; imported mappings are unrated.

    Malformed lines and URIs naming other vocabularies are reported per
    line; triples with predicates outside the four mapping predicates are
    skipped and listed in the report.
    """
    lines = StringIO(stream) if isinstance(stream, str) else stream
    report = SkosImportReport()

    def parse(line_no: int, line: str) -> tuple | None:
        match = _TRIPLE_RE.match(line)
        if match is None:
            raise FormatError(f"malformed triple: {line!r}")
        subject, predicate, obj = match.groups()
        if (relation := PREDICATE_TO_RELATION.get(predicate)) is None:
            report.skipped_predicates.append((line_no, predicate))
            return None
        subject_vocab, source_term = parse_concept_uri(subject)
        object_vocab, target_term = parse_concept_uri(obj)
        if subject_vocab != source_vocab or object_vocab != target_vocab:
            raise InvalidMappingError(
                f"URI vocabularies {subject_vocab!r}->{object_vocab!r} do not "
                f"match requested crosswalk {source_vocab!r}->{target_vocab!r}"
            )
        return source_vocab, source_term, relation, target_vocab, [target_term], _UNRATED

    # stripped first, so an indented `# ...` line is a comment too
    return store.load_rows(numbered_lines(raw.strip() for raw in lines), parse, report)
