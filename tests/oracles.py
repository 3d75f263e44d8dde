"""Independent oracles the test suite checks the package against.

Nothing in here imports komohe's inference or query internals beyond the
public enum/value types; every computation is restated from scratch so a
bug in the package cannot hide inside its own test.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from itertools import chain, combinations

from komohe.errors import FormatError, InvalidMappingError, KomoheError, QueryParseError
from komohe.skos import parse_concept_uri
from komohe.store import Concept, Mapping, RelationType, RelevanceRating

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
# Brute-force variant audit. Collects every equivalence row into the target
# vocabulary from the raw mapping lists, then for each term and each pair of
# source vocabularies (in sorted order) pairs every target of the first with
# every target of the second, in mapping order, keeping the pairs whose
# member terms differ.


def brute_force_variants(crosswalks, target_vocab: str):
    """(term, (vocab_a, vocab_b), (target_a, target_b)) rows ordered by term,
    then vocabulary pair, then each target's position in its crosswalk."""
    eq_rows = [
        (cw.source_vocab, m.source.terms[0], m.target)
        for cw in crosswalks
        if cw.target_vocab == target_vocab
        for m in cw.mappings
        if m.relation is RelationType.EQ
    ]
    vocabs = sorted({vocab for vocab, _, _ in eq_rows})
    rows = []
    for term in sorted({term for _, term, _ in eq_rows}):
        for i, vocab_a in enumerate(vocabs):
            for vocab_b in vocabs[i + 1 :]:
                for source_a, term_a, target_a in eq_rows:
                    if (source_a, term_a) != (vocab_a, term):
                        continue
                    for source_b, term_b, target_b in eq_rows:
                        if (source_b, term_b) != (vocab_b, term):
                            continue
                        if target_a.terms != target_b.terms:
                            rows.append((term, (vocab_a, vocab_b), (target_a, target_b)))
    return rows


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
# Brute-force reverse lookup. Walks every crosswalk's raw mapping list,
# stably sorted by source term, and keeps each mapping one of whose target
# members is the (normalized) term, once however many of its members that is.


def brute_force_reverse(crosswalks, term: str, target_vocab=None):
    """(crosswalk, mapping) rows ordered by crosswalk id, then source term, then
    position: the order in which export_tsv writes them."""
    rows = []
    for cw in sorted(crosswalks, key=lambda c: c.id):
        if target_vocab is not None and cw.target_vocab != target_vocab:
            continue
        for m in sorted(cw.mappings, key=lambda m: m.source.terms[0]):
            if m.target is not None and any(member == term for member in m.target.terms):
                rows.append((cw, m))
    return rows


# ----------------------------------------------------------------------
# Brute-force forward lookup. Walks the crosswalks in id order and each
# one's raw mapping list in insertion order, keeping the mappings whose
# source is the (normalized) term and that pass every given filter.


def brute_force_from(
    crosswalks, term: str, source_vocab=None, relations=None, min_rating=None, target_vocabs=None
):
    """(crosswalk, mapping) rows ordered by crosswalk id, then position."""
    rows = []
    for cw in sorted(crosswalks, key=lambda c: c.id):
        if source_vocab is not None and cw.source_vocab != source_vocab:
            continue
        if target_vocabs is not None and cw.target_vocab not in target_vocabs:
            continue
        for m in cw.mappings:
            if m.source.terms != (term,):
                continue
            if relations is not None and m.relation not in relations:
                continue
            if min_rating is not None and (
                m.rating is RelevanceRating.UNRATED or _RANKS[m.rating] < _RANKS[min_rating]
            ):
                continue
            rows.append((cw, m))
    return rows


# ----------------------------------------------------------------------
# Brute-force corpus count. Scans every document's descriptor set for all
# of the query's (vocabulary, normalized term) keys; normalization is
# restated here (case-fold, NFC, whitespace runs collapsed).


def oracle_normalize(raw: str) -> str:
    return " ".join(unicodedata.normalize("NFC", raw.casefold()).split())


def brute_force_count(docs, vocab: str, terms) -> int:
    """Documents of `docs` ({doc id: {(vocab, normalized term)}}) carrying every term."""
    keys = {(vocab, oracle_normalize(t)) for t in terms}
    return sum(1 for descriptors in docs.values() if keys <= descriptors)


# ----------------------------------------------------------------------
# Row-by-row crosswalk load. Builds a store through the public, fully
# checked path only: each row's mapping is made from scratch, then
# add_term, ensure_crosswalk and add_mapping store it, with no memo and no
# shortcut past a check. Rows come split into their six columns, and each
# names its target vocabulary.


def row_by_row_load(store, rows) -> list[tuple[int, str]]:
    """Load (source vocab, source term, relation symbol, target vocab, target
    terms, rating) rows into `store`; returns (line, reason) for each rejected
    row, numbered from 2 as the rows of a TSV file after its header."""
    errors = []
    for line_no, row in enumerate(rows, start=2):
        source_vocab, source_term, symbol, target_vocab, targets, rating_text = row
        try:
            relation = RelationType.parse(symbol)
            rating = RelevanceRating.parse(rating_text)
            members = targets.split(" + ") if targets.strip() else []
            target = Concept.combination(members) if members else None
            mapping = Mapping(Concept.single(source_term), relation, target, rating)
            crosswalk = store.ensure_crosswalk(source_vocab, target_vocab)  # registers the vocabularies
            store.registry.add_term(source_vocab, source_term)
            for member in members:
                store.registry.add_term(target_vocab, member)
            store.add_mapping(crosswalk.id, mapping)
        except KomoheError as exc:
            errors.append((line_no, str(exc)))
    return errors


# ----------------------------------------------------------------------
# SKOS N-Triples read, one line at a time: every concept URI goes through
# parse_concept_uri and then the comparison with the requested
# vocabularies, and each row is stored through add_row with no memo.

_SKOS = "http://www.w3.org/2004/02/skos/core#"
_SKOS_RELATIONS = {
    _SKOS + "exactMatch": RelationType.EQ,
    _SKOS + "broadMatch": RelationType.BROADER_TARGET,
    _SKOS + "narrowMatch": RelationType.NARROWER_TARGET,
    _SKOS + "relatedMatch": RelationType.ASSOC,
}
_TRIPLE = re.compile(r"^<([^<>]*)>\s+<([^<>]*)>\s+<([^<>]*)>\s*\.$")


def line_by_line_skos_read(store, text: str, source_vocab: str, target_vocab: str):
    """(mappings added, [(line, reason)]) of reading N-Triples `text` into the
    source_vocab -> target_vocab crosswalk of `store`; a triple with another
    predicate than the four mapping predicates is a rejected line."""
    if source_vocab == target_vocab:
        raise InvalidMappingError(f"crosswalk source and target must differ (got {source_vocab!r})")
    added, errors = 0, []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            match = _TRIPLE.match(line)
            if match is None:
                raise FormatError(f"malformed triple: {line!r}")
            subject, predicate, obj = match.groups()
            relation = _SKOS_RELATIONS.get(predicate)
            if relation is None:
                raise FormatError(f"skipped predicate {predicate}")
            subject_vocab, source_term = parse_concept_uri(subject)
            object_vocab, target_term = parse_concept_uri(obj)
            if (subject_vocab, object_vocab) != (source_vocab, target_vocab):
                raise InvalidMappingError(
                    f"URI vocabularies {subject_vocab!r}->{object_vocab!r} do not "
                    f"match requested crosswalk {source_vocab!r}->{target_vocab!r}"
                )
            store.add_row(
                source_vocab, source_term, relation, target_vocab, [target_term], RelevanceRating.UNRATED
            )
            added += 1
        except KomoheError as exc:
            errors.append((line_no, str(exc)))
    return added, errors


# ----------------------------------------------------------------------
# Query tokenizer. The character loop that split query text into tokens
# before the package used one regular expression, kept as it was: one
# character at a time, with str.isspace deciding what separates tokens.

_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT"}
_PUNCT = {"(": "LPAREN", ")": "RPAREN"}


@dataclass(frozen=True)
class _Token:
    kind: str  # LPAREN RPAREN AND OR NOT TEXT
    value: str
    position: int


def oracle_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise QueryParseError("unterminated quote", i)
            phrase = text[i + 1 : end]
            if not phrase.strip():
                raise QueryParseError("empty phrase", i)
            tokens.append(_Token("TEXT", phrase, i))
            i = end + 1
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in '()"':
            i += 1
        word = text[start:i]
        kind = _KEYWORDS.get(word.lower())
        if kind:
            tokens.append(_Token(kind, word, start))
        else:
            tokens.append(_Token("TEXT", word, start))
    return tokens
