"""komohe: cross-concordance storage, query expansion, and term translation.

The package keeps directed mappings between controlled vocabularies
(thesauri, classifications, keyword lists), answers "what does this term
map to over there" questions, rewrites Boolean queries so they match
documents indexed with other vocabularies, derives indirect mappings
through pivot vocabularies, and moves data in and out as TSV or SKOS
N-Triples. A small HTTP service (komohe.service) and a CLI (komohe.cli)
sit on top; the package root re-exports only the library beneath them.
"""

from .assessment import (
    Assessment,
    AssessmentReport,
    Corpus,
    Verdict,
    assess_mapping,
    load_corpus,
    sample_assessment,
)
from .dataset import Dataset, translate
from .errors import (
    ConflictError,
    FormatError,
    InvalidMappingError,
    InvalidTermError,
    KomoheError,
    NotFoundError,
    QueryParseError,
)
from .inference import (
    InferredMapping,
    VariantConflict,
    combined_confidence,
    compose_relations,
    detect_variant_mappings,
    infer_pivot,
)
from .queries import (
    And,
    ExpansionConfig,
    Leaf,
    Not,
    Or,
    expand_query,
    parse_query,
    render_query,
)
from .registry import Term, Vocabulary, VocabularyRegistry, normalize_term
from .skos import export_skos, import_skos
from .store import (
    Concept,
    Crosswalk,
    CrosswalkStore,
    Mapping,
    RelationType,
    RelevanceRating,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "Assessment",
    "AssessmentReport",
    "Concept",
    "ConflictError",
    "Corpus",
    "Crosswalk",
    "CrosswalkStore",
    "Dataset",
    "ExpansionConfig",
    "FormatError",
    "InferredMapping",
    "InvalidMappingError",
    "InvalidTermError",
    "KomoheError",
    "Leaf",
    "Mapping",
    "Not",
    "NotFoundError",
    "Or",
    "QueryParseError",
    "RelationType",
    "RelevanceRating",
    "Term",
    "VariantConflict",
    "Verdict",
    "Vocabulary",
    "VocabularyRegistry",
    "assess_mapping",
    "combined_confidence",
    "compose_relations",
    "detect_variant_mappings",
    "expand_query",
    "export_skos",
    "import_skos",
    "infer_pivot",
    "load_corpus",
    "normalize_term",
    "parse_query",
    "render_query",
    "sample_assessment",
    "translate",
    "__version__",
]
