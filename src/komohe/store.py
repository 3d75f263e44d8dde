"""Directed crosswalk store: mappings, indexes, statistics, TSV persistence.

A crosswalk holds directed mappings from one vocabulary into another.
Crosswalks are independent per direction: A->B and B->A coexist and need
not agree. The store indexes mappings by source term only, the direction
expansion, translation and pivot inference read; a reverse lookup by
target term scans the crosswalks. It persists bit-exactly to a
line-oriented TSV format.

TSV format (UTF-8, LF):
    line 1:     #komohe-tsv v1
    data lines: source_vocab<TAB>source_term<TAB>relation<TAB>target_vocab<TAB>target_terms<TAB>rating

Relation symbols: = (equivalence), < (target is broader), > (target is
narrower), ^ (association), 0 (no counterpart exists). Combination targets
join their member terms with " + ", so a target whose terms would not split
back the same way is an invalid mapping. target_terms and rating are empty
for relation 0; lines starting with `#` are ignored. On export, null rows
keep the target vocabulary in column 4 so every line is attributable to its
crosswalk; on import an empty column 4 on a null row falls back to the last
target vocabulary named for that source vocabulary.

One loader builds the store; once loading has finished, any number of
threads may read it, and nothing writes it again, so it needs no lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable

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


class RelationType(Enum):
    """The five crosswalk relation symbols."""

    EQ = "="
    BROADER_TARGET = "<"
    NARROWER_TARGET = ">"
    ASSOC = "^"
    NULL = "0"

    @classmethod
    def parse(cls, symbol: str) -> "RelationType":
        try:
            return cls(symbol)
        except ValueError:
            raise InvalidMappingError(f"unknown relation symbol {symbol!r}") from None


class RelevanceRating(Enum):
    """Per-mapping quality tag; HIGH > MEDIUM > LOW, UNRATED sits outside the order."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"
    UNRATED = ""

    @property
    def rank(self) -> int:
        return _RATING_RANK[self]

    def meets(self, minimum: "RelevanceRating | None") -> bool:
        """Threshold check; UNRATED fails every explicit threshold."""
        if minimum is None:
            return True
        return self is not RelevanceRating.UNRATED and self.rank >= minimum.rank

    @classmethod
    def parse(cls, text: str) -> "RelevanceRating":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InvalidMappingError(f"unknown rating {text!r}") from None


_RATING_RANK = {
    RelevanceRating.HIGH: 3,
    RelevanceRating.MEDIUM: 2,
    RelevanceRating.LOW: 1,
    RelevanceRating.UNRATED: 0,
}


@dataclass(frozen=True)
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
        return cls(tuple(normalize_term(t) for t in terms))

    @property
    def is_single(self) -> bool:
        return len(self.terms) == 1

    @property
    def label(self) -> str:
        return COMBINATION_JOIN.join(self.terms)


@dataclass(frozen=True)
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
        if not self.source.is_single:
            raise InvalidMappingError("mapping source must be a single term")
        if self.relation is RelationType.NULL and self.target is not None:
            raise InvalidMappingError("null relation cannot carry a target")
        if self.relation is not RelationType.NULL and self.target is None:
            raise InvalidMappingError(
                f"relation {self.relation.value!r} requires a target"
            )
        if self.target and tuple(self.target.label.split(COMBINATION_JOIN)) != self.target.terms:
            raise InvalidMappingError(
                f"target {self.target.terms!r} cannot be written: "
                f"{COMBINATION_JOIN!r} joins combination members"
            )

    @property
    def triple(self) -> tuple[tuple[str, ...], str, tuple[str, ...] | None]:
        """Identity key for duplicate detection: (source, relation, target)."""
        return (
            self.source.terms,
            self.relation.value,
            self.target.terms if self.target else None,
        )

    @property
    def label(self) -> str:
        if self.target is None:
            return f"{self.source.label} {self.relation.value}"
        return f"{self.source.label} {self.relation.value} {self.target.label}"


@dataclass
class Crosswalk:
    """A directed cross-concordance between two vocabularies."""

    source_vocab: str
    target_vocab: str
    mappings: list[Mapping] = field(default_factory=list)
    # source term -> its mappings in order: the lists of the store's forward index
    by_source: dict[str, list[Mapping]] = field(default_factory=dict, repr=False)

    @property
    def id(self) -> str:
        return f"{self.source_vocab}-{self.target_vocab}"

    def contains(self, mapping: Mapping) -> bool:
        """True when an identical (source, relation, target) triple is stored."""
        triple = mapping.triple
        return any(m.triple == triple for m in self.by_source.get(mapping.source.terms[0], ()))


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


def tsv_row(source_vocab: str, mapping: Mapping, target_vocab: str) -> str:
    """One crosswalk TSV data line (no newline) for the mapping."""
    return "\t".join(
        (
            source_vocab,
            mapping.source.terms[0],
            mapping.relation.value,
            target_vocab,
            mapping.target.label if mapping.target else "",
            mapping.rating.value,
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


class CrosswalkStore:
    """In-memory indexed store of crosswalks over a shared registry."""

    def __init__(self, registry: VocabularyRegistry):
        self.registry = registry
        self._crosswalks: dict[str, Crosswalk] = {}
        # term -> crosswalk id -> mappings, insertion order preserved
        self._by_source: dict[str, dict[str, list[Mapping]]] = {}

    # ------------------------------------------------------------------
    # crosswalk management

    def create_crosswalk(self, source_vocab: str, target_vocab: str) -> Crosswalk:
        crosswalk = self._new_crosswalk(source_vocab, target_vocab)
        self.registry.vocabulary(source_vocab)
        self.registry.vocabulary(target_vocab)
        self._crosswalks[crosswalk.id] = crosswalk
        return crosswalk

    def _new_crosswalk(self, source_vocab: str, target_vocab: str) -> Crosswalk:
        """An unstored crosswalk; raises unless the two differ and its id is free."""
        if source_vocab == target_vocab:
            raise InvalidMappingError(
                f"crosswalk source and target must differ (got {source_vocab!r})"
            )
        crosswalk = Crosswalk(source_vocab, target_vocab)
        existing = self._crosswalks.get(crosswalk.id)
        if existing is not None:
            if (existing.source_vocab, existing.target_vocab) != (source_vocab, target_vocab):
                raise ConflictError(
                    f"crosswalk id {crosswalk.id!r} collides with "
                    f"{existing.source_vocab!r}->{existing.target_vocab!r}"
                )
            raise ConflictError(f"crosswalk {crosswalk.id!r} already exists")
        return crosswalk

    def ensure_crosswalk(self, source_vocab: str, target_vocab: str) -> tuple[Crosswalk, bool]:
        """Get or create; returns (crosswalk, created)."""
        existing = self.find_crosswalk(source_vocab, target_vocab)
        if existing is not None:
            return existing, False
        return self.create_crosswalk(source_vocab, target_vocab), True

    def crosswalk(self, crosswalk_id: str) -> Crosswalk:
        try:
            return self._crosswalks[crosswalk_id]
        except KeyError:
            raise NotFoundError(f"unknown crosswalk {crosswalk_id!r}") from None

    def crosswalks(self) -> list[Crosswalk]:
        return [self._crosswalks[k] for k in sorted(self._crosswalks)]

    def find_crosswalk(self, source_vocab: str, target_vocab: str) -> Crosswalk | None:
        cw = self._crosswalks.get(f"{source_vocab}-{target_vocab}")
        if cw and (cw.source_vocab, cw.target_vocab) == (source_vocab, target_vocab):
            return cw
        return None

    # ------------------------------------------------------------------
    # mappings

    def add_mapping(self, crosswalk_id: str, mapping: Mapping) -> str:
        """Store a mapping; returns its id, `<crosswalk id>:<1-based position>`.

        The source term must be registered in the source vocabulary and all
        target members in the target vocabulary. Duplicate (source,
        relation, target) triples within one crosswalk are conflicts.
        """
        crosswalk = self.crosswalk(crosswalk_id)
        source_term = mapping.source.terms[0]
        if not self.registry.has_term(crosswalk.source_vocab, source_term):
            raise NotFoundError(
                f"term {source_term!r} not registered in {crosswalk.source_vocab!r}"
            )
        if mapping.target is not None:
            for member in mapping.target.terms:
                if not self.registry.has_term(crosswalk.target_vocab, member):
                    raise NotFoundError(
                        f"term {member!r} not registered in {crosswalk.target_vocab!r}"
                    )
        if crosswalk.contains(mapping):
            raise ConflictError(f"duplicate mapping {mapping.label!r} in {crosswalk_id!r}")
        crosswalk.mappings.append(mapping)
        same_source = crosswalk.by_source.get(source_term)
        if same_source is None:
            same_source = crosswalk.by_source[source_term] = []
            self._by_source.setdefault(source_term, {})[crosswalk_id] = same_source
        same_source.append(mapping)
        return f"{crosswalk_id}:{len(crosswalk.mappings)}"

    def add_row(
        self,
        source_vocab: str,
        source_term: str,
        relation: RelationType,
        target_vocab: str,
        target_terms: list[str],
        rating: RelevanceRating,
    ) -> bool:
        """Store one TSV or SKOS row; returns whether it created its crosswalk.

        The mapping, and for a new crosswalk both vocabulary ids, their
        difference and the crosswalk id, are checked before anything is
        registered; unknown vocabularies and terms are then auto-registered.
        """
        source = Concept.single(source_term)
        target = Concept.combination(target_terms) if target_terms else None
        mapping = Mapping(source=source, relation=relation, target=target, rating=rating)
        crosswalk = self.find_crosswalk(source_vocab, target_vocab)
        created = crosswalk is None
        if created:
            crosswalk = self._new_crosswalk(source_vocab, target_vocab)
            vocabularies = [Vocabulary(source_vocab), Vocabulary(target_vocab)]  # checks the ids
            for vocabulary in vocabularies:
                if not self.registry.has_vocabulary(vocabulary.id):
                    self.registry.register_vocabulary(vocabulary)
            self._crosswalks[crosswalk.id] = crosswalk
        self.registry.intern_term(source_vocab, source.terms[0], source_term)
        if target is not None:
            for normalized, display in zip(target.terms, target_terms):
                self.registry.intern_term(target_vocab, normalized, display)
        self.add_mapping(crosswalk.id, mapping)
        return created

    def mappings_from(
        self,
        term: str,
        source_vocab: str | None = None,
        relations: set[RelationType] | None = None,
        min_rating: RelevanceRating | None = None,
        target_vocabs: set[str] | None = None,
    ) -> list[tuple[Crosswalk, Mapping]]:
        """All mappings whose source equals the (normalized) term.

        Ordered by crosswalk id, then insertion order within a crosswalk.
        """
        normalized = normalize_term(term)
        per_crosswalk = self._by_source.get(normalized, {})
        results: list[tuple[Crosswalk, Mapping]] = []
        for crosswalk_id in sorted(per_crosswalk):
            crosswalk = self._crosswalks[crosswalk_id]
            if source_vocab is not None and crosswalk.source_vocab != source_vocab:
                continue
            if target_vocabs is not None and crosswalk.target_vocab not in target_vocabs:
                continue
            for mapping in per_crosswalk[crosswalk_id]:
                if relations is not None and mapping.relation not in relations:
                    continue
                if not mapping.rating.meets(min_rating):
                    continue
                results.append((crosswalk, mapping))
        return results

    def mappings_to(
        self, term: str, target_vocab: str | None = None
    ) -> list[tuple[Crosswalk, Mapping]]:
        """All mappings whose target is the term or a combination containing it."""
        normalized = normalize_term(term)
        return [
            (crosswalk, m)
            for crosswalk in self.crosswalks()
            if target_vocab is None or crosswalk.target_vocab == target_vocab
            for m in crosswalk.mappings
            if m.target is not None and normalized in m.target.terms
        ]

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

        report = ImportReport()
        # source vocab -> target vocab last named for it; context for null
        # rows whose target vocabulary column is empty.
        last_target_for: dict[str, str] = {}
        for line_no, line in lines:
            try:
                created = self._import_line(line, last_target_for)
            except KomoheError as exc:
                report.errors.append((line_no, str(exc)))
                continue
            report.mappings_added += 1
            report.crosswalks_created += created
        return report

    def _import_line(self, line: str, last_target_for: dict[str, str]) -> bool:
        """Check one data line's columns and store it through add_row."""
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
        if relation is not RelationType.NULL and not target_vocab:
            raise InvalidMappingError("missing target vocabulary")
        target_vocab = target_vocab or last_target_for.get(source_vocab, "")
        if not target_vocab:
            raise InvalidMappingError(
                "null row has no target vocabulary and no preceding "
                f"crosswalk for source vocabulary {source_vocab!r}"
            )
        last_target_for[source_vocab] = target_vocab
        return self.add_row(source_vocab, source_term, relation, target_vocab, members, rating)

    def export_tsv(self, crosswalk_ids: Iterable[str] | None = None) -> str:
        """Render crosswalks as TSV; re-importing reproduces the store.

        One block per crosswalk; data lines sorted by source term, then by
        insertion order. Null rows keep their crosswalk's target vocabulary
        in column 4.
        """
        if crosswalk_ids is None:
            selected = self.crosswalks()
        else:
            selected = [self.crosswalk(cid) for cid in crosswalk_ids]
        out = [TSV_HEADER]
        for crosswalk in selected:
            out.extend(
                tsv_row(crosswalk.source_vocab, mapping, crosswalk.target_vocab)
                for mapping in sorted(crosswalk.mappings, key=lambda m: m.source.terms[0])
            )
        return "\n".join(out) + "\n"
