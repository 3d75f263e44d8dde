"""A loaded vocabulary registry and crosswalk store, and term translation over it.

A Dataset is built by one loader (Dataset.load, or a CLI command that then
saves it) and only read afterwards: the HTTP service loads it once and
serves it to concurrent readers, and a reload is a restart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import NotFoundError
from .registry import VocabularyRegistry
from .store import CrosswalkStore, RelationType, RelevanceRating

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    """A registry and the store over it: built by one loader, then only read."""

    registry: VocabularyRegistry
    store: CrosswalkStore

    @classmethod
    def empty(cls) -> "Dataset":
        registry = VocabularyRegistry()
        return cls(registry=registry, store=CrosswalkStore(registry))

    @classmethod
    def load(cls, paths: list[Path]) -> "Dataset":
        """Load term-list (*.terms) and crosswalk (*.tsv) files.

        Directories are scanned (sorted); term lists load before crosswalks
        so vocabulary metadata wins over auto-registration.
        """
        dataset = cls.empty()
        term_files: list[Path] = []
        tsv_files: list[Path] = []
        for path in paths:
            if path.is_dir():
                term_files.extend(sorted(path.glob("*.terms")))
                tsv_files.extend(sorted(path.glob("*.tsv")))
            elif path.suffix == ".terms":
                term_files.append(path)
            else:
                tsv_files.append(path)
        for path in term_files:
            with path.open(encoding="utf-8") as fh:
                dataset.registry.import_terms(fh)
        for path in tsv_files:
            with path.open(encoding="utf-8") as fh:
                report = dataset.store.import_tsv(fh)
            for line_no, reason in report.errors:
                logger.warning("%s:%d: %s", path, line_no, reason)
        return dataset


@dataclass(frozen=True)
class TranslationCandidate:
    """A preferred controlled term in the requested language."""

    term: str
    vocab: str
    rating: RelevanceRating
    path: str  # crosswalk id the candidate came from


def translate(
    dataset: Dataset,
    term: str,
    target_lang: str,
    source_lang: str | None = None,
) -> list[TranslationCandidate]:
    """Follow equivalence mappings into vocabularies of the target language.

    The term is resolved in every vocabulary of the source language (or all
    vocabularies when unspecified); single-term equivalence targets in
    target-language vocabularies are returned, deduplicated per (vocab,
    term) keeping the best rating, ordered by rating then term.
    """
    if not dataset.registry.vocabularies_by_language(target_lang):
        raise NotFoundError(f"no vocabulary with language {target_lang!r}")
    if source_lang is None:
        source_vocabs = dataset.registry.vocabularies()
    else:
        source_vocabs = dataset.registry.vocabularies_by_language(source_lang)

    best: dict[tuple[str, str], TranslationCandidate] = {}
    for vocab in source_vocabs:
        found = dataset.registry.lookup_term(vocab.id, term)
        if found is None:
            continue
        for crosswalk, mapping in dataset.store.mappings_from(
            found.normalized,
            source_vocab=vocab.id,
            relations={RelationType.EQ},
        ):
            target_vocab = dataset.registry.vocabulary(crosswalk.target_vocab)
            if target_vocab.language != target_lang:
                continue
            if mapping.target is None or not mapping.target.is_single:
                continue
            candidate = TranslationCandidate(
                term=mapping.target.terms[0],
                vocab=crosswalk.target_vocab,
                rating=mapping.rating,
                path=crosswalk.id,
            )
            key = (candidate.vocab, candidate.term)
            current = best.get(key)
            if current is None or candidate.rating.rank > current.rating.rank:
                best[key] = candidate
    return sorted(best.values(), key=lambda c: (-c.rating.rank, c.term, c.vocab))
