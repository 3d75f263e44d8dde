"""Independent oracles the test suite checks the package against.

Nothing in here imports komohe's inference or query internals beyond the
public enum/value types; every computation is restated from scratch so a
bug in the package cannot hide inside its own test.
"""

from __future__ import annotations

from itertools import chain, combinations

from komohe.store import RelationType, RelevanceRating

# ----------------------------------------------------------------------
# Relation composition via a set model.
#
# Interpret each mapped concept as a finite set of "documents it stands
# for". The four positive relation symbols then have exact set readings:
#
#   =  extensions identical
#   <  source strictly inside target (target is the broader concept)
#   >  source strictly contains target (target is the narrower concept)
#   ^  overlapping, neither containing the other
#
# compose(r1, r2) is the relation forced between X and Z across *every*
# model where rel(X, Y) = r1 and rel(Y, Z) = r2. If different models give
# different X-Z relations, composition is undefined. The null relation has
# no extension reading (there is no target concept), so it is out of scope
# here and handled by direct assertions in the tests.

_POSITIVE = (
    RelationType.EQ,
    RelationType.BROADER_TARGET,
    RelationType.NARROWER_TARGET,
    RelationType.ASSOC,
)


def classify_sets(x: frozenset, y: frozenset) -> RelationType | None:
    if x == y:
        return RelationType.EQ
    if x < y:
        return RelationType.BROADER_TARGET
    if x > y:
        return RelationType.NARROWER_TARGET
    if x & y:
        return RelationType.ASSOC
    return None  # disjoint: no positive relation holds


def _all_nonempty_subsets(universe: tuple) -> list[frozenset]:
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(universe, n) for n in range(1, len(universe) + 1)
        )
    ]


def set_model_composition_table() -> dict:
    """Forced composition for every positive relation pair, by enumeration."""
    subsets = _all_nonempty_subsets(tuple(range(5)))
    table: dict = {}
    for r1 in _POSITIVE:
        for r2 in _POSITIVE:
            outcomes = set()
            for x in subsets:
                for y in subsets:
                    if classify_sets(x, y) is not r1:
                        continue
                    for z in subsets:
                        if classify_sets(y, z) is not r2:
                            continue
                        outcomes.add(classify_sets(x, z))
                if len(outcomes) > 1:
                    break  # already ambiguous, no need to finish
            if len(outcomes) == 1 and None not in outcomes:
                table[(r1, r2)] = outcomes.pop()
            else:
                table[(r1, r2)] = None
    return table


# ----------------------------------------------------------------------
# Confidence arithmetic, restated numerically.

_RANKS = {
    RelevanceRating.HIGH: 3,
    RelevanceRating.MEDIUM: 2,
    RelevanceRating.LOW: 1,
    RelevanceRating.UNRATED: 0,
}
_BY_RANK = {v: k for k, v in _RANKS.items()}


def oracle_confidence(r1: RelevanceRating, r2: RelevanceRating) -> RelevanceRating:
    a, b = _RANKS[r1], _RANKS[r2]
    if a == 0 or b == 0:
        return RelevanceRating.UNRATED
    return _BY_RANK[max(1, min(a, b) - 1)]


# ----------------------------------------------------------------------
# Brute-force pivot join. Walks raw crosswalk mapping lists with nested
# loops, joining single-target mappings on the pivot term, composing with
# the set-model table above, and keeping the best-confidence result per
# (source, relation, target) triple.


def brute_force_pivot(store, source_vocab: str, target_vocab: str, pivot_vocab: str):
    table = set_model_composition_table()
    first = store.find_crosswalk(source_vocab, pivot_vocab)
    second = store.find_crosswalk(pivot_vocab, target_vocab)
    assert first is not None and second is not None

    best: dict = {}
    for m1 in first.mappings:
        if m1.target is None or not m1.target.is_single:
            continue
        for m2 in second.mappings:
            if m2.target is None or not m2.target.is_single:
                continue
            if m1.target.terms[0] != m2.source.terms[0]:
                continue
            composed = table.get((m1.relation, m2.relation))
            if composed is None:
                continue
            confidence = oracle_confidence(m1.rating, m2.rating)
            key = (m1.source.terms, composed.value, m2.target.terms)
            held = best.get(key)
            if held is None or _RANKS[confidence] > _RANKS[held]:
                best[key] = confidence
    return {
        (source, relation, target, conf)
        for (source, relation, target), conf in best.items()
    }


# ----------------------------------------------------------------------
# Brute-force translation. Walks every crosswalk's raw mapping list for
# single-target equivalences of the (normalized) term between vocabularies
# of the requested languages. Per (target vocabulary, target term) the best
# rating wins, and at equal rating the smaller source vocabulary id.


def brute_force_translate(registry, crosswalks, term: str, target_lang: str, source_lang=None):
    """(term, vocab, rating, path) rows ordered by rating, then term, then vocab."""
    found: dict = {}
    for cw in crosswalks:
        if registry.vocabulary(cw.target_vocab).language != target_lang:
            continue
        if source_lang is not None and registry.vocabulary(cw.source_vocab).language != source_lang:
            continue
        for m in cw.mappings:
            if m.relation is not RelationType.EQ or m.source.terms != (term,):
                continue
            if len(m.target.terms) != 1:
                continue
            target = m.target.terms[0]
            found.setdefault((cw.target_vocab, target), []).append(
                (-_RANKS[m.rating], cw.source_vocab, m.rating, cw.id)
            )
    rows = []
    for (vocab, target), candidates in found.items():
        neg_rank, _, rating, path = min(candidates, key=lambda c: c[:2])
        rows.append((neg_rank, target, vocab, rating, path))
    return [(target, vocab, rating, path) for _, target, vocab, rating, path in sorted(rows)]


# ----------------------------------------------------------------------
# Brute-force reverse lookup. Walks every crosswalk's raw mapping list in
# order and keeps each mapping one of whose target members is the
# (normalized) term, once however many of its members that is.


def brute_force_reverse(crosswalks, term: str, target_vocab=None):
    """(crosswalk, mapping) rows ordered by crosswalk id, then position."""
    rows = []
    for cw in sorted(crosswalks, key=lambda c: c.id):
        if target_vocab is not None and cw.target_vocab != target_vocab:
            continue
        for m in cw.mappings:
            if m.target is not None and any(member == term for member in m.target.terms):
                rows.append((cw, m))
    return rows
