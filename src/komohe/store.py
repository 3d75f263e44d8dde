"""Directed crosswalk store: mappings, indexes, statistics, TSV persistence.

A crosswalk holds directed mappings from one vocabulary into another.
Crosswalks are independent per direction: A->B and B->A coexist and need
not agree. Mappings are indexed by source term, the direction expansion,
translation and pivot inference read (each crosswalk owns its per-term
lists); a reverse lookup by target term scans the crosswalks. It persists
bit-exactly to a line-oriented TSV format.

TSV format (UTF-8, LF):
    line 1:     #komohe-tsv v1
    data lines: source_vocab<TAB>source_term<TAB>relation<TAB>target_vocab<TAB>target_terms<TAB>rating

Relation symbols: = (equivalence), < (target is broader), > (target is
narrower), ^ (association), 0 (no counterpart exists). Combination targets
join their member terms with " + ", so a target whose terms would not split
back the same way is an invalid mapping. target_terms is empty for relation
0, but its rating column is kept; lines starting with `#` are ignored. On
export, null rows keep the target vocabulary in column 4 so every line is
attributable to its crosswalk; on import an empty column 4 on a null row
falls back to the last target vocabulary named for that source vocabulary.

The store needs no lock: the service's threads only read its rows once its
load has finished, and a writing command adds to it from its one thread.
The threads do write its expansion cache (`expansions`, kept by
queries.expand_query), but only by single dict operations (get, store, len,
clear), each atomic under the interpreter lock; they never iterate it, and
a race costs at most one recomputed entry.
Every file load (TSV here, SKOS in skos.py) runs through load_rows, which
pauses the cyclic garbage collector while it loads and restores the
caller's setting afterwards. Its memo maps each raw term string and key,
per vocabulary, to one Concept around the registry's own key object: a raw
string seen before skips normalize_term and intern_term, so a load normalizes
each distinct string once per vocabulary, and mappings naming one term share
that Concept (a combination, its key). A raw string the registry holds as a
key is not normalized at all. The memo lives for one load, so no
user-supplied string outlives it.
"""

from __future__ import annotations

import gc
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import IO, AbstractSet, Callable, Iterable, Iterator

from .errors import (
    ConflictError,
    FormatError,
    InvalidMappingError,
    InvalidTermError,
    KomoheError,
    NotFoundError,
)
from .registry import Vocabulary, VocabularyRegistry, normalize_term, read_numbered_lines

TSV_HEADER = "#komohe-tsv v1"
COMBINATION_JOIN = " + "


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting, also on error.

    A load frees almost no cycles, yet each full collection re-scans the growing
    store; README "Data model" gives the cost. Dataset.load also freezes what it
    loaded, so later collections skip it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class RelationType(Enum):
    """The five crosswalk relation symbols."""

    EQ = "="
    BROADER_TARGET = "<"
    NARROWER_TARGET = ">"
    ASSOC = "^"
    NULL = "0"

    # a member is a singleton and equality is identity, so hash the identity
    __hash__ = object.__hash__

    def __init__(self, symbol: str) -> None:
        # a plain attribute reads faster than the enum's `.value` descriptor
        self.symbol = symbol

    @classmethod
    def parse(cls, symbol: str) -> "RelationType":
        relation = _RELATIONS.get(symbol)
        if relation is None:
            raise InvalidMappingError(f"unknown relation symbol {symbol!r}")
        return relation


class RelevanceRating(Enum):
    """Per-mapping quality tag; HIGH > MEDIUM > LOW, UNRATED (rank 0) sits outside the order."""

    HIGH = "high", 3
    MEDIUM = "medium", 2
    LOW = "low", 1
    UNRATED = "", 0

    __hash__ = object.__hash__  # as RelationType's

    def __new__(cls, text: str, rank: int) -> "RelevanceRating":
        # the value is the text alone, so RelevanceRating("high") is HIGH
        self = object.__new__(cls)
        self._value_ = self.text = text
        self.rank = rank
        return self

    @classmethod
    def parse(cls, text: str) -> "RelevanceRating":
        rating = _RATINGS.get(text.strip().lower())
        if rating is None:
            raise InvalidMappingError(f"unknown rating {text!r}")
        return rating


_NULL = RelationType.NULL  # a module constant reads faster than the enum member
_RELATIONS = {relation.symbol: relation for relation in RelationType}
_RATINGS = {rating.text: rating for rating in RelevanceRating}


@dataclass(frozen=True, slots=True)
class Concept:
    """A single controlled term or an ordered combination of two or more.

    Member terms are stored normalized. A combination is a distinct concept
    from each of its members.
    """

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidTermError("concept needs at least one term")

    @classmethod
    def single(cls, term: str) -> "Concept":
        return cls((normalize_term(term),))

    @classmethod
    def combination(cls, terms: Iterable[str]) -> "Concept":
        """A 1:n target concept; a one-element combination is a plain single."""
        return cls(tuple(map(normalize_term, terms)))

    @property
    def is_single(self) -> bool:
        return len(self.terms) == 1

    @property
    def label(self) -> str:
        return COMBINATION_JOIN.join(self.terms)


@dataclass(frozen=True, slots=True)
class Mapping:
    """One directed relation inside a crosswalk.

    The source is always a single term; the target is absent exactly for
    NULL relations and may be a combination for any other relation.
    """

    source: Concept
    relation: RelationType
    target: Concept | None = None
    rating: RelevanceRating = RelevanceRating.UNRATED

    def __post_init__(self) -> None:
        target = self.target
        if len(self.source.terms) != 1:
            raise InvalidMappingError("mapping source must be a single term")
        if self.relation is _NULL:
            if target is not None:
                raise InvalidMappingError("null relation cannot carry a target")
        elif target is None:
            raise InvalidMappingError(f"relation {self.relation.symbol!r} requires a target")
        # only a member holding "+" can make the joined label split differently
        elif "+" in "".join(target.terms):
            if tuple(target.label.split(COMBINATION_JOIN)) != target.terms:
                raise InvalidMappingError(
                    f"target {target.terms!r} cannot be written: "
                    f"{COMBINATION_JOIN!r} joins combination members"
                )

    @property
    def label(self) -> str:
        if self.target is None:
            return f"{self.source.label} {self.relation.symbol}"
        return f"{self.source.label} {self.relation.symbol} {self.target.label}"


@dataclass
class Crosswalk:
    """A directed cross-concordance between two vocabularies."""

    source_vocab: str
    target_vocab: str
    mappings: list[Mapping] = field(default_factory=list)
    # source term -> its mappings in order; the only copy of each list
    by_source: dict[str, list[Mapping]] = field(default_factory=dict, repr=False)
    id: str = field(init=False)

    def __post_init__(self) -> None:
        self.id = f"{self.source_vocab}-{self.target_vocab}"

    def contains(self, mapping: Mapping) -> bool:
        """True when an identical (source, relation, target) triple is stored."""
        mappings = self.by_source.get(mapping.source.terms[0], ())
        return any(m.relation is mapping.relation and m.target == mapping.target for m in mappings)


@dataclass
class CrosswalkStats:
    mapping_count: int
    relations: dict[RelationType, int]
    ratings: dict[RelevanceRating, int]


@dataclass
class ImportReport:
    crosswalks_created: int = 0
    mappings_added: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)


_BY_ID = attrgetter("id")
TermMemo = dict[str, dict[str, Concept]]  # a load's vocabulary -> {raw term or key: Concept}
# a data line -> add_row's arguments up to `memo`; a line that is no row raises KomoheError
RowParser = Callable[[str], tuple]


def tsv_row(source_vocab: str, mapping: Mapping, target_vocab: str) -> str:
    """One crosswalk TSV data line (no newline) for the mapping."""
    return "\t".join(
        (
            source_vocab,
            mapping.source.terms[0],
            mapping.relation.symbol,
            target_vocab,
            mapping.target.label if mapping.target else "",
            mapping.rating.text,
        )
    )


def split_list(text: str) -> list[str]:
    """The items of a comma-separated list, stripped; empty items are dropped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def parse_relations(text: str) -> set[RelationType]:
    """Comma-separated relation symbols such as `=,^`; empty items are skipped."""
    relations = {RelationType.parse(symbol) for symbol in split_list(text)}
    if not relations:
        raise InvalidMappingError(f"no relation symbols in {text!r}")
    return relations


def check_crosswalk_ends(source_vocab: str, target_vocab: str) -> None:
    """A crosswalk maps one vocabulary into another, never into itself."""
    if source_vocab == target_vocab:
        raise InvalidMappingError(f"crosswalk source and target must differ (got {source_vocab!r})")


def _parse_tsv_line(line: str, last_target_for: dict[str, str]) -> tuple:
    """Check one data line's columns; returns its add_row arguments."""
    fields = line.split("\t")
    if len(fields) > 6:
        extra = fields[6:]
        if not (len(extra) == 1 and extra[0].lstrip().startswith("#")):
            raise FormatError(f"expected at most 6 fields, got {len(fields)}")
        fields = fields[:6]
    if len(fields) < 3:
        raise FormatError(f"expected 6 tab-separated fields, got {len(fields)}")
    fields += [""] * (6 - len(fields))
    source_vocab, source_term, relation_sym, target_vocab, target_terms, rating_text = fields

    relation = RelationType.parse(relation_sym)
    rating = RelevanceRating.parse(rating_text)
    members = target_terms.split(COMBINATION_JOIN) if target_terms.strip() else []
    if relation is not _NULL and not target_vocab:
        raise InvalidMappingError("missing target vocabulary")
    target_vocab = target_vocab or last_target_for.get(source_vocab, "")
    if not target_vocab:
        raise InvalidMappingError(
            "null row has no target vocabulary and no preceding "
            f"crosswalk for source vocabulary {source_vocab!r}"
        )
    last_target_for[source_vocab] = target_vocab
    return source_vocab, source_term, relation, target_vocab, members, rating


class CrosswalkStore:
    """In-memory indexed store of crosswalks over a shared registry."""

    def __init__(self, registry: VocabularyRegistry):
        self.registry = registry
        self._crosswalks: dict[str, Crosswalk] = {}
        # source term -> the crosswalks that map from it, by id; they own its lists
        self._by_source: dict[str, list[Crosswalk]] = {}
        # queries.expand_query's cache of leaf expansions, keyed and bounded there
        self.expansions: dict = {}

    # ------------------------------------------------------------------
    # crosswalk management

    def ensure_crosswalk(self, source_vocab: str, target_vocab: str) -> Crosswalk:
        """The crosswalk between the two vocabularies, created if there is none.

        A new crosswalk is stored once the two vocabularies differ, its id is
        free and both ids are valid; only then are the unknown ones registered.
        """
        existing = self.find_crosswalk(source_vocab, target_vocab)
        if existing is not None:
            return existing
        check_crosswalk_ends(source_vocab, target_vocab)
        crosswalk = Crosswalk(source_vocab, target_vocab)
        existing = self._crosswalks.get(crosswalk.id)
        if existing is not None:
            raise ConflictError(
                f"crosswalk id {crosswalk.id!r} collides with "
                f"{existing.source_vocab!r}->{existing.target_vocab!r}"
            )
        vocab_ids = (source_vocab, target_vocab)
        unknown = [Vocabulary(v) for v in vocab_ids if not self.registry.has_vocabulary(v)]
        for vocabulary in unknown:
            self.registry.register_vocabulary(vocabulary)
        self._crosswalks[crosswalk.id] = crosswalk
        return crosswalk

    def crosswalk(self, crosswalk_id: str) -> Crosswalk:
        try:
            return self._crosswalks[crosswalk_id]
        except KeyError:
            raise NotFoundError(f"unknown crosswalk {crosswalk_id!r}") from None

    def crosswalks(self, crosswalk_ids: Iterable[str] | None = None) -> list[Crosswalk]:
        """All crosswalks sorted by id, or the named ones in the order given."""
        if crosswalk_ids is None:
            return [self._crosswalks[k] for k in sorted(self._crosswalks)]
        return [self.crosswalk(cid) for cid in crosswalk_ids]

    def find_crosswalk(self, source_vocab: str, target_vocab: str) -> Crosswalk | None:
        cw = self._crosswalks.get(f"{source_vocab}-{target_vocab}")
        if cw and (cw.source_vocab, cw.target_vocab) == (source_vocab, target_vocab):
            return cw
        return None

    # ------------------------------------------------------------------
    # mappings

    def add_mapping(self, crosswalk_id: str, mapping: Mapping) -> None:
        """Store a mapping at the end of its crosswalk.

        The source term must be registered in the source vocabulary and all
        target members in the target vocabulary. Duplicate (source,
        relation, target) triples within one crosswalk are conflicts.
        """
        crosswalk = self.crosswalk(crosswalk_id)
        target_terms = mapping.target.terms if mapping.target is not None else ()
        for vocab_id, terms in (
            (crosswalk.source_vocab, mapping.source.terms),
            (crosswalk.target_vocab, target_terms),
        ):
            for term in terms:
                if self.registry.term(vocab_id, term) is None:
                    raise NotFoundError(f"term {term!r} not registered in {vocab_id!r}")
        self._insert(crosswalk, mapping)

    def _insert(self, crosswalk: Crosswalk, mapping: Mapping) -> None:
        """Index a mapping whose terms are registered; a duplicate triple is a conflict.
        A stored row empties the expansion cache, which it can make stale."""
        source_term = mapping.source.terms[0]
        same_source = crosswalk.by_source.get(source_term)
        if same_source is None:
            # most sources map once per crosswalk: an exact-size list, not append's four slots
            crosswalk.by_source[source_term] = [mapping]
            insort(self._by_source.setdefault(source_term, []), crosswalk, key=_BY_ID)
        elif crosswalk.contains(mapping):
            raise ConflictError(f"duplicate mapping {mapping.label!r} in {crosswalk.id!r}")
        else:
            same_source.append(mapping)
        crosswalk.mappings.append(mapping)
        if self.expansions:
            self.expansions.clear()

    def add_row(
        self,
        source_vocab: str,
        source_term: str,
        relation: RelationType,
        target_vocab: str,
        target_terms: list[str],
        rating: RelevanceRating,
        memo: TermMemo | None = None,
    ) -> None:
        """Store one TSV or SKOS row.

        The mapping is checked first, then ensure_crosswalk checks a new
        crosswalk and registers its unknown vocabularies; only then are
        unknown terms auto-registered. `memo` is the loader's memo; a term
        enters it once it is registered.
        """
        memo = {} if memo is None else memo
        target_concepts = memo.setdefault(target_vocab, {})
        misses: list[tuple[str, dict[str, Concept], str, Concept]] = []
        source = self._concept(source_vocab, memo.setdefault(source_vocab, {}), source_term, misses)
        targets = [self._concept(target_vocab, target_concepts, t, misses) for t in target_terms]
        if len(targets) > 1:
            target = Concept(tuple(concept.terms[0] for concept in targets))
        else:
            target = targets[0] if targets else None
        mapping = Mapping(source, relation, target, rating)
        crosswalk = self.ensure_crosswalk(source_vocab, target_vocab)
        for vocab_id, concepts, raw, concept in misses:
            key = self.registry.intern_term(vocab_id, concept.terms[0], raw).normalized
            # a key another member of this row registered first keeps that member's Concept
            concepts[raw] = concepts.setdefault(key, concept)
        self._insert(crosswalk, mapping)

    def _concept(self, vocab_id: str, concepts: dict, raw: str, misses: list) -> Concept:
        """A raw term's Concept, from the memo `concepts` by raw string or key; a term
        the registry holds already enters it now, a new one is queued in `misses`
        for add_row to register once the row has passed its checks."""
        concept = concepts.get(raw)
        if concept is None:
            # a stored key is its own normal form, so a raw key skips normalize_term
            if (term := self.registry.term(vocab_id, raw)) is None:
                key = normalize_term(raw)
                if (concept := concepts.get(key)) is None:
                    if (term := self.registry.term(vocab_id, key)) is None:
                        concept = Concept((key,))
                        misses.append((vocab_id, concepts, raw, concept))
                        return concept
            if concept is None:
                concept = concepts[term.normalized] = Concept((term.normalized,))
            concepts[raw] = concept
        return concept

    def mappings_from(
        self,
        term: str,
        source_vocab: str | None = None,
        relations: AbstractSet[RelationType] | None = None,
        min_rating: RelevanceRating | None = None,
        target_vocabs: AbstractSet[str] | None = None,
    ) -> list[tuple[Crosswalk, Mapping]]:
        """All mappings whose source equals the (normalized) term.

        Ordered by crosswalk id, then insertion order within a crosswalk.
        """
        # a stored key is its own normal form, so only a string that is no key is normalized
        normalized = term if term in self._by_source else normalize_term(term)
        # UNRATED ranks 0, so a floor of at least 1 fails it at every explicit threshold
        floor = None if min_rating is None else max(min_rating.rank, 1)
        results: list[tuple[Crosswalk, Mapping]] = []
        for crosswalk in self._by_source.get(normalized, ()):
            if source_vocab is not None and crosswalk.source_vocab != source_vocab:
                continue
            if target_vocabs is not None and crosswalk.target_vocab not in target_vocabs:
                continue
            for mapping in crosswalk.by_source[normalized]:
                if relations is not None and mapping.relation not in relations:
                    continue
                if floor is not None and mapping.rating.rank < floor:
                    continue
                results.append((crosswalk, mapping))
        return results

    def mappings_to(
        self, term: str, target_vocab: str | None = None
    ) -> list[tuple[Crosswalk, Mapping]]:
        """All mappings whose target is the term or a combination containing it.

        Ordered by crosswalk id, then source term, then insertion order: the
        order export_tsv writes, so a save and reload leave it as it is.
        """
        normalized = normalize_term(term)
        rows = [
            (crosswalk, m)
            for crosswalk in self.crosswalks()
            if target_vocab is None or crosswalk.target_vocab == target_vocab
            for m in crosswalk.mappings
            if m.target is not None and normalized in m.target.terms
        ]
        rows.sort(key=lambda row: (row[0].id, row[1].source.terms[0]))  # stable
        return rows

    def stats(self) -> dict[str, CrosswalkStats]:
        """Per-crosswalk mapping tallies by relation type and rating."""
        out: dict[str, CrosswalkStats] = {}
        for crosswalk in self.crosswalks():
            relations = {r: 0 for r in RelationType}
            ratings = {r: 0 for r in RelevanceRating}
            for mapping in crosswalk.mappings:
                relations[mapping.relation] += 1
                ratings[mapping.rating] += 1
            out[crosswalk.id] = CrosswalkStats(
                mapping_count=len(crosswalk.mappings),
                relations=relations,
                ratings=ratings,
            )
        return out

    # ------------------------------------------------------------------
    # TSV persistence

    def import_tsv(self, stream: IO[str] | str) -> ImportReport:
        """Load crosswalk TSV; unknown vocabularies and terms are auto-registered.

        Malformed lines are reported with their line number and skipped;
        the import never aborts mid-stream. A missing or wrong header is a
        FormatError.
        """
        header, lines = read_numbered_lines(stream, TSV_HEADER)
        if header != TSV_HEADER:
            raise FormatError(f"bad header {header!r}; expected {TSV_HEADER!r}")

        # source vocab -> target vocab last named for it; context for null
        # rows whose target vocabulary column is empty.
        last_target_for: dict[str, str] = {}
        return self.load_rows(lines, lambda line: _parse_tsv_line(line, last_target_for))

    def load_rows(self, lines: Iterable[tuple[int, str]], parse: RowParser) -> ImportReport:
        """Store each numbered line's row through add_row, with one memo and the
        collector paused. Every line is either stored or rejected: one whose parse
        or row raises KomoheError is reported with its number; the load never
        aborts mid-stream."""
        report = ImportReport()
        crosswalks_before = len(self._crosswalks)
        memo: TermMemo = {}
        with gc_paused():
            for line_no, line in lines:
                try:
                    self.add_row(*parse(line), memo)
                    report.mappings_added += 1
                except KomoheError as exc:
                    report.errors.append((line_no, str(exc)))
        report.crosswalks_created = len(self._crosswalks) - crosswalks_before
        return report

    def export_tsv(self, crosswalk_ids: Iterable[str] | None = None) -> str:
        """Render crosswalks as TSV; re-importing reproduces the store.

        One block per crosswalk; data lines sorted by source term, then by
        insertion order. Null rows keep their crosswalk's target vocabulary
        in column 4.
        """
        out = [TSV_HEADER]
        for crosswalk in self.crosswalks(crosswalk_ids):
            out.extend(
                tsv_row(crosswalk.source_vocab, mapping, crosswalk.target_vocab)
                for mapping in sorted(crosswalk.mappings, key=lambda m: m.source.terms[0])
            )
        return "\n".join(out) + "\n"
