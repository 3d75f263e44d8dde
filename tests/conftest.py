"""Shared fixtures: the six-row crosswalk sample, the asymmetric pair,
a bilingual network, and a 20-document corpus."""

from __future__ import annotations

import gc

import pytest

from komohe.registry import Vocabulary, VocabularyRegistry
from komohe.service import Dataset
from komohe.store import Concept, CrosswalkStore, Mapping, RelationType, RelevanceRating

# Six mappings from vocabulary A to vocabulary B. The null row carries no
# target vocabulary and is attributed to A-B by context.
SIXROW_TSV = """\
#komohe-tsv v1
A\thacker\t=\tB\thacking\thigh
A\thacker\t^\tB\tcomputers + crime\tmedium
A\thacker\t^\tB\tinternet + security\tmedium
A\tisdn device\t0\t\t\t
A\tisdn\t<\tB\ttelecommunications\thigh
A\tdocumentation system\t>\tB\tabstracting services\tlow
"""

# Bilateral pair where the two directions disagree: computer maps to
# information system going A to B, but information system maps to data
# base coming back.
ASYMMETRY_TSV = """\
#komohe-tsv v1
A\tcomputer\t=\tB\tinformation system\thigh
B\tinformation system\t=\tA\tdata base\thigh
"""

CORPUS_TSV = """\
#corpus v1
d01\tB\thacking
d02\tB\thacking
d03\tB\thacking
d04\tB\thacking
d05\tB\tcomputers
d06\tB\tcrime
d07\tB\tinternet
d07\tB\tsecurity
d08\tB\tinternet
d08\tB\tsecurity
d09\tB\ttelecommunications
d10\tB\tabstracting services
d11\tA\thacker
d12\tA\thacker
d13\tA\tisdn
d14\tA\tdocumentation system
d15\tA\tcomputer
d16\tB\tsecurity
d17\tB\tinternet
d18\tB\tcrime
d18\tB\tcomputers
d19\tA\tisdn device
d20\tB\thacking
"""


@pytest.fixture(autouse=True)
def gc_unfrozen():
    """Dataset.load freezes every object alive in the process. Unfreezing after
    each test keeps an earlier test's cyclic garbage, such as an unclosed file,
    collectable, so its ResourceWarning still surfaces as an error."""
    yield
    gc.unfreeze()


def build_dataset(tsv: str) -> Dataset:
    dataset = Dataset.empty()
    report = dataset.store.import_tsv(tsv)
    assert not report.errors, report.errors
    return dataset


@pytest.fixture
def sixrow() -> Dataset:
    return build_dataset(SIXROW_TSV)


@pytest.fixture
def asymmetry() -> Dataset:
    return build_dataset(ASYMMETRY_TSV)


@pytest.fixture
def bilingual() -> Dataset:
    """German thesaurus 'thesoz', English 'elsst', plus an English 'cabt'."""
    registry = VocabularyRegistry()
    registry.register_vocabulary(Vocabulary("thesoz", language="de"))
    registry.register_vocabulary(Vocabulary("elsst", language="en"))
    registry.register_vocabulary(Vocabulary("cabt", language="en"))
    store = CrosswalkStore(registry)
    for vocab, term in [
        ("thesoz", "soziologie"),
        ("thesoz", "jugend"),
        ("elsst", "sociology"),
        ("elsst", "youth"),
        ("cabt", "sociology"),
        ("cabt", "social sciences"),
    ]:
        registry.add_term(vocab, term)
    store.ensure_crosswalk("thesoz", "elsst")
    store.ensure_crosswalk("thesoz", "cabt")
    rows = [
        ("thesoz-elsst", "soziologie", "sociology", RelevanceRating.HIGH),
        ("thesoz-elsst", "jugend", "youth", RelevanceRating.MEDIUM),
        ("thesoz-cabt", "soziologie", "sociology", RelevanceRating.LOW),
        ("thesoz-cabt", "soziologie", "social sciences", RelevanceRating.MEDIUM),
    ]
    for crosswalk_id, source, target, rating in rows:
        store.add_mapping(
            crosswalk_id,
            Mapping(
                source=Concept.single(source),
                relation=RelationType.EQ,
                target=Concept.single(target),
                rating=rating,
            ),
        )
    return Dataset(registry=registry, store=store)
