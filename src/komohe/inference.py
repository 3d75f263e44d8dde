"""Indirect mappings through a pivot vocabulary, and variant-conflict detection.

Two stored mappings A->B and B->C compose into a proposed A->C mapping
when the middle concept is a single term shared by both hops and the two
relations compose cleanly. Inferred mappings are proposals: they are
returned, never written into the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import NotFoundError
from .store import TSV_HEADER, Concept, CrosswalkStore, Mapping, RelationType, RelevanceRating
from .store import check_crosswalk_ends, tsv_row

_EQ = RelationType.EQ
_BROADER = RelationType.BROADER_TARGET
_NARROWER = RelationType.NARROWER_TARGET
_ASSOC = RelationType.ASSOC

# Composition of two chained relations. Equivalence is the identity;
# same-direction hierarchy chains keep their direction; opposite-direction
# hierarchy chains and chained associations are indeterminate. Pairs absent
# from the table must not be inferred.
COMPOSITION: dict[tuple[RelationType, RelationType], RelationType] = {
    (_EQ, _EQ): _EQ,
    (_EQ, _BROADER): _BROADER,
    (_EQ, _NARROWER): _NARROWER,
    (_EQ, _ASSOC): _ASSOC,
    (_BROADER, _EQ): _BROADER,
    (_NARROWER, _EQ): _NARROWER,
    (_ASSOC, _EQ): _ASSOC,
    (_BROADER, _BROADER): _BROADER,
    (_NARROWER, _NARROWER): _NARROWER,
}

_DEMOTED = {
    RelevanceRating.HIGH: RelevanceRating.MEDIUM,
    RelevanceRating.MEDIUM: RelevanceRating.LOW,
    RelevanceRating.LOW: RelevanceRating.LOW,
}


def compose_relations(first: RelationType, second: RelationType) -> RelationType | None:
    """Relation of a two-hop chain, or None when nothing may be inferred."""
    return COMPOSITION.get((first, second))


def combined_confidence(first: RelevanceRating, second: RelevanceRating) -> RelevanceRating:
    """One level below the weaker hop; LOW stays LOW, UNRATED propagates."""
    if RelevanceRating.UNRATED in (first, second):
        return RelevanceRating.UNRATED
    weaker = first if first.rank <= second.rank else second
    return _DEMOTED[weaker]


# rating pair -> confidence, built from the rule above so it stays the only source
_CONFIDENCES = {pair: combined_confidence(*pair) for pair in product(RelevanceRating, repeat=2)}


@dataclass(slots=True)
class InferredMapping:
    """A proposed mapping composed from two stored hops via a pivot vocabulary."""

    source: Concept
    target: Concept
    relation: RelationType
    confidence: RelevanceRating
    pivot_vocab: str

    def as_mapping(self) -> Mapping:
        """The proposal as a storable mapping, its confidence as the rating."""
        return Mapping(self.source, self.relation, self.target, self.confidence)


def infer_pivot(
    store: CrosswalkStore, source_vocab: str, target_vocab: str, pivot_vocab: str
) -> list[InferredMapping]:
    """Compose source->pivot with pivot->target mappings.

    Both hops must have single-term targets; the pivot term must match
    exactly. One result per (source, relation, target) keeps the highest
    confidence (on a tie, the first chain in first-hop order), sorted by
    source term, relation symbol, target. Source and target must differ.
    """
    check_crosswalk_ends(source_vocab, target_vocab)
    first_hop = store.find_crosswalk(source_vocab, pivot_vocab)
    if first_hop is None:
        raise NotFoundError(f"no crosswalk {source_vocab!r} -> {pivot_vocab!r}")
    second_hop = store.find_crosswalk(pivot_vocab, target_vocab)
    if second_hop is None:
        raise NotFoundError(f"no crosswalk {pivot_vocab!r} -> {target_vocab!r}")

    # (source, relation symbol, target) -> (confidence, relation, source, target)
    best: dict[tuple[str, str, str], tuple] = {}
    best_get, compose, second_rows = best.get, COMPOSITION.get, second_hop.by_source.get
    for m1 in first_hop.mappings:
        pivot = m1.target
        if pivot is None or len(pivot.terms) != 1:
            continue
        rows = second_rows(pivot.terms[0])
        if rows is None:  # most pivot terms start no second-hop row
            continue
        relation, rating, source = m1.relation, m1.rating, m1.source
        source_key = source.terms[0]
        for m2 in rows:
            composed = compose((relation, m2.relation))  # None for a targetless null hop
            target = m2.target
            if composed is None or len(target.terms) != 1:
                continue
            confidence = _CONFIDENCES[rating, m2.rating]
            key = (source_key, composed.symbol, target.terms[0])
            current = best_get(key)
            if current is None or confidence.rank > current[0].rank:
                best[key] = (confidence, composed, source, target)

    # the keys are unique, so they alone fix the order
    return [
        InferredMapping(source, target, relation, confidence, pivot_vocab)
        for confidence, relation, source, target in map(best.__getitem__, sorted(best))
    ]


def export_inferred_tsv(
    inferred: list[InferredMapping], source_vocab: str, target_vocab: str
) -> str:
    """Inferred mappings in crosswalk TSV form with a trailing `# via:` column."""
    out = [TSV_HEADER]
    out.extend(
        f"{tsv_row(source_vocab, m.as_mapping(), target_vocab)}\t# via:{m.pivot_vocab}"
        for m in inferred
    )
    return "\n".join(out) + "\n"


@dataclass(frozen=True, slots=True)
class VariantConflict:
    """The same term in two vocabularies maps to different targets in a third."""

    term: str
    vocab_pair: tuple[str, str]
    target_vocab: str
    targets: tuple[Concept, Concept]


def detect_variant_mappings(store: CrosswalkStore, target_vocab: str) -> list[VariantConflict]:
    """Find terms whose equivalence targets disagree across source vocabularies.

    Considers EQ mappings into `target_vocab` only. For every term mapped
    from two or more source vocabularies, each differing target pair is one
    conflict; agreeing targets produce none.
    """
    # term -> source vocab -> EQ target concepts, each once: one crosswalk per pair, no triple twice
    targets_by_term: dict[str, dict[str, list[Concept]]] = {}
    for crosswalk in store.crosswalks():
        if crosswalk.target_vocab != target_vocab:
            continue
        source_vocab = crosswalk.source_vocab
        for mapping in crosswalk.mappings:
            if mapping.relation is not _EQ:  # an EQ mapping always has a target
                continue
            term = mapping.source.terms[0]
            per_vocab = targets_by_term.get(term)
            if per_vocab is None:
                targets_by_term[term] = {source_vocab: [mapping.target]}
            elif (targets := per_vocab.get(source_vocab)) is None:
                per_vocab[source_vocab] = [mapping.target]
            else:
                targets.append(mapping.target)

    conflicts: list[VariantConflict] = []
    for term in sorted(targets_by_term):
        per_vocab = targets_by_term[term]
        if len(per_vocab) < 2:
            continue
        for vocab_a, vocab_b in combinations(sorted(per_vocab), 2):
            for target_a in per_vocab[vocab_a]:
                for target_b in per_vocab[vocab_b]:
                    # a load shares one Concept per single-term target: equal ones are one object
                    if target_a is target_b or target_a == target_b:
                        continue
                    conflicts.append(
                        VariantConflict(term, (vocab_a, vocab_b), target_vocab, (target_a, target_b))
                    )
    return conflicts
