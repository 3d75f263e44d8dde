"""Spot-check mappings against a descriptor-indexed document corpus.

A corpus is a set of documents, each carrying (vocabulary, term)
descriptor pairs. It is held as postings per vocabulary: each normalized
term maps to a tuple of the ids of the documents carrying it, each id once,
in line order. The load normalizes each distinct raw term once per
vocabulary, and every posting shares one string object per document id.
Assessing a mapping counts documents indexed with the source term and
documents indexed with the complete target concept; a combination target
intersects its members' postings, so a document carrying only some members
does not count. Every document id named on a well-formed line counts in
len(corpus), even if its only term is rejected. Assessment reads the store
and corpus, never writes.

Corpus TSV (UTF-8, LF): header `#corpus v1`, then
`doc_id<TAB>vocab<TAB>term` lines; `#` lines and blank lines ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import IO

from .errors import FormatError, InvalidMappingError, KomoheError
from .registry import normalize_term, read_numbered_lines
from .store import CrosswalkStore, Mapping, RelationType

CORPUS_HEADER = "#corpus v1"


@dataclass
class Corpus:
    """Postings: vocab -> normalized term -> ids of the documents carrying it."""

    # one string object per document id, shared by every posting naming it
    doc_ids: dict[str, str] = field(default_factory=dict)
    postings: dict[str, dict[str, tuple[str, ...]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def count_with_all(self, vocab: str, terms: tuple[str, ...]) -> int:
        """Documents carrying every term (smallest postings first); no terms: all."""
        by_term = self.postings.get(vocab, {})
        # a stored key is its own normal form, so only a term that is no key is normalized
        keys = (t if t in by_term else normalize_term(t) for t in terms)
        postings = sorted((by_term.get(key, ()) for key in keys), key=len)
        if len(postings) < 2:
            return len(postings[0]) if postings else len(self)
        return len(set(postings[0]).intersection(*postings[1:]))


@dataclass
class CorpusLoad:
    corpus: Corpus
    errors: list[tuple[int, str]] = field(default_factory=list)


def load_corpus(stream: IO[str] | str) -> CorpusLoad:
    """Parse a corpus TSV; malformed lines are reported and skipped."""
    header, lines = read_numbered_lines(stream, CORPUS_HEADER)
    if header != CORPUS_HEADER:
        raise FormatError(f"bad header {header!r}; expected {CORPUS_HEADER!r}")
    load = CorpusLoad(corpus=Corpus())
    doc_ids = load.corpus.doc_ids
    # per vocabulary: normalized term -> doc ids in line order, and raw term ->
    # that same list, so a raw string seen before skips normalize_term
    lists: dict[str, dict[str, list[str]]] = {}
    memos: dict[str, dict[str, list[str]]] = {}
    for line_no, line in lines:
        try:
            fields = line.split("\t")
            if len(fields) != 3:
                raise FormatError(f"expected 3 fields, got {len(fields)}")
            doc_id, vocab, term = fields
            if not doc_id.strip() or not vocab.strip():
                raise FormatError("empty doc id or vocabulary")
            # the document counts before its term is checked, so a document whose
            # only line holds a rejected term still counts in len(corpus)
            doc_id = doc_ids.setdefault(doc_id, doc_id)
            memo = memos.setdefault(vocab, {})
            docs = memo.get(term)
            if docs is None:
                by_term = lists.setdefault(vocab, {})
                docs = memo[term] = by_term.setdefault(normalize_term(term), [])
            if not docs or docs[-1] is not doc_id:
                docs.append(doc_id)
        except KomoheError as exc:
            load.errors.append((line_no, str(exc)))
    # a document repeating a term on non-adjacent lines is listed twice until here
    load.corpus.postings = {
        vocab: {key: tuple(dict.fromkeys(docs)) for key, docs in by_term.items()}
        for vocab, by_term in lists.items()
    }
    return load


class Verdict(Enum):
    OK = "OK"
    EMPTY_TARGET = "EMPTY_TARGET"


@dataclass
class Assessment:
    source_hits: int
    target_hits: int
    verdict: Verdict


def assess_mapping(
    mapping: Mapping, source_vocab: str, target_vocab: str, corpus: Corpus
) -> Assessment:
    """Count corpus documents carrying the source term and the full target concept.

    Null mappings have nothing to check and are rejected.
    """
    if mapping.relation is RelationType.NULL or mapping.target is None:
        raise InvalidMappingError("cannot assess a null mapping")
    source_hits = corpus.count_with_all(source_vocab, mapping.source.terms)
    target_hits = corpus.count_with_all(target_vocab, mapping.target.terms)
    verdict = Verdict.OK if target_hits > 0 else Verdict.EMPTY_TARGET
    return Assessment(source_hits=source_hits, target_hits=target_hits, verdict=verdict)


@dataclass
class AssessmentRow:
    mapping: Mapping
    result: Assessment


@dataclass
class AssessmentReport:
    sample_size: int
    rows: list[AssessmentRow] = field(default_factory=list)

    @property
    def empty_target_rate(self) -> float:
        if not self.rows:
            return 0.0
        empties = sum(1 for r in self.rows if r.result.verdict is Verdict.EMPTY_TARGET)
        return empties / len(self.rows)

    def to_tsv(self) -> str:
        """Header plus `mapping<TAB>source_hits<TAB>target_hits<TAB>verdict` lines."""
        lines = ["mapping\tsource_hits\ttarget_hits\tverdict"]
        for row in self.rows:
            hits = f"{row.result.source_hits}\t{row.result.target_hits}"
            lines.append(f"{row.mapping.label}\t{hits}\t{row.result.verdict.value}")
        return "\n".join(lines) + "\n"


def sample_assessment(
    store: CrosswalkStore,
    crosswalk_id: str,
    corpus: Corpus,
    sample_size: int,
    seed: int,
) -> AssessmentReport:
    """Assess a seeded pseudo-random sample of a crosswalk's non-null mappings.

    The same seed always selects the same sample. sample_size is clamped to
    the number of assessable mappings. The sample is drawn from, and its rows
    come back in, export order (by source term, then insertion order), so a
    save and reload leave it as it is.
    """
    if sample_size < 1:
        raise InvalidMappingError("sample size must be at least 1")
    crosswalk = store.crosswalk(crosswalk_id)
    candidates = [m for m in crosswalk.mappings if m.relation is not RelationType.NULL]
    candidates.sort(key=lambda m: m.source.terms[0])  # stable, as export_tsv's
    k = min(sample_size, len(candidates))
    rng = random.Random(seed)
    chosen = [candidates[i] for i in sorted(rng.sample(range(len(candidates)), k))]
    report = AssessmentReport(sample_size=k)
    for mapping in chosen:
        result = assess_mapping(mapping, crosswalk.source_vocab, crosswalk.target_vocab, corpus)
        report.rows.append(AssessmentRow(mapping=mapping, result=result))
    return report
