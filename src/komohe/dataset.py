"""A loaded registry and crosswalk store, its data directory, and translation.

A Dataset is built by one loader (Dataset.load, or a CLI command that then
saves it), and its rows are only read afterwards: the HTTP service loads it
once and serves it to concurrent readers, who write only the store's
expansion cache (see store.py), and a reload is a restart. A command that
saves holds the data directory's writer lock from its load to its save.
"""

from __future__ import annotations

import gc
import logging
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator
from urllib.parse import quote

from .errors import ConflictError, NotFoundError
from .registry import VocabularyRegistry
from .store import CrosswalkStore, RelationType, RelevanceRating, gc_paused

logger = logging.getLogger(__name__)

CROSSWALKS_FILE = "crosswalks.tsv"
LOCK_FILE = ".komohe.lock"  # exists only while a writer holds it; Dataset.load never reads it
LOGGED_ERRORS = 5  # rejected lines quoted in a file's load warning


def rejected_line(path: str | Path, line_no: int, reason: str) -> str:
    """How a rejected or skipped input line is reported: `path:line: reason`."""
    return f"{path}:{line_no}: {reason}"


@dataclass
class Dataset:
    """A registry and the store over it: loaded once, then read, or added to by one writing command.

    Dataset.load runs with the cyclic garbage collector paused and, once the
    load has succeeded, calls gc.freeze(), so later collections skip the
    loaded objects instead of re-scanning them. The freeze is process-wide: it
    also takes every other object alive at that moment out of the collector's
    reach until gc.unfreeze(). A Dataset holds no reference cycles, so a
    dropped one is still freed by reference counting (README "Data model").
    """

    registry: VocabularyRegistry
    store: CrosswalkStore
    rejected_lines: int = 0  # crosswalk lines the load rejected, over all files

    @classmethod
    def empty(cls) -> "Dataset":
        registry = VocabularyRegistry()
        return cls(registry=registry, store=CrosswalkStore(registry))

    @classmethod
    def load(cls, paths: list[Path]) -> "Dataset":
        """Load data directories, term-list (*.terms) and crosswalk TSV files.

        A directory contributes its *.terms files (sorted) and its
        crosswalks.tsv, and other files in it are ignored; term lists load
        before crosswalks so vocabulary metadata wins over auto-registration.
        Each file with rejected lines gets one warning: their count and the
        first few. Their total is kept in `rejected_lines`.
        """
        dataset = cls.empty()
        term_files: list[Path] = []
        tsv_files: list[Path] = []
        for path in paths:
            if path.is_dir():
                term_files.extend(sorted(path.glob("*.terms")))
                if (path / CROSSWALKS_FILE).exists():
                    tsv_files.append(path / CROSSWALKS_FILE)
            elif path.suffix == ".terms":
                term_files.append(path)
            else:
                tsv_files.append(path)
        with gc_paused():
            for path in term_files:
                with path.open(encoding="utf-8") as fh:
                    dataset.registry.import_terms(fh)
            for path in tsv_files:
                with path.open(encoding="utf-8") as fh:
                    errors = dataset.store.import_tsv(fh).errors
                dataset.rejected_lines += len(errors)
                if errors:
                    first = "; ".join(rejected_line(path, *row) for row in errors[:LOGGED_ERRORS])
                    logger.warning("%s: %d lines rejected, first: %s", path, len(errors), first)
            # before the collector is back on, or its first collection scans the load
            gc.freeze()
        return dataset


def _write_atomic(path: Path, text: str, mode: int) -> None:
    """Replace path in one step, so a crash leaves the old file or the new one.

    The text goes to a new temp file of its own, which mkstemp opens with
    O_EXCL: no other writer shares it, and no file or link left at a temp
    name is written through. It is removed if any step fails.
    """
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)  # mkstemp's 0600 would hide the data from other users
            fh.write(text)
            fh.flush()
            os.fsync(fd)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def save_dataset(dataset: Dataset, directory: Path) -> None:
    """Write one `<vocab>.terms` file per vocabulary (the id percent-encoded)
    and crosswalks.tsv: the data directory Dataset.load reads back. Each file
    is replaced atomically, then the directory is synced once (POSIX only)."""
    directory.mkdir(parents=True, exist_ok=True)
    # the mode a plain open() gives; os.umask is read by setting it, here briefly stricter
    umask = os.umask(0o077)
    os.umask(umask)
    mode = 0o666 & ~umask
    for vocab in dataset.registry.vocabularies():
        filename = quote(vocab.id, safe="") + ".terms"
        _write_atomic(directory / filename, dataset.registry.export_terms(vocab.id), mode)
    _write_atomic(directory / CROSSWALKS_FILE, dataset.store.export_tsv(), mode)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)  # makes the renames durable
    finally:
        os.close(fd)


@contextmanager
def writer_lock(directory: Path) -> Iterator[None]:
    """Hold the data directory's writer lock, an exclusive flock on LOCK_FILE (POSIX only).

    Fails at once with ConflictError when another writer holds it; nothing
    waits. On exit the lock file is removed, and so is each directory this
    call had to create that is still empty. A lock file its holder removed
    after this call opened it is no lock, so finding that also fails.
    """
    import fcntl  # POSIX only, so only a writer needs it

    created = [path for path in (directory, *directory.parents) if not path.exists()]
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / LOCK_FILE
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = os.path.samestat(os.fstat(fd), os.stat(path))
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise ConflictError(f"data directory {str(directory)!r} is in use by another writer")
        try:
            yield
        finally:
            path.unlink(missing_ok=True)
            for parent in created:  # innermost first
                try:
                    parent.rmdir()
                except OSError:  # it holds the saved files
                    break
    finally:
        os.close(fd)


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
    term) keeping the best rating (at equal rating, the first source
    vocabulary by id), ordered by rating then term.
    """
    registry = dataset.registry
    if not registry.vocabularies_by_language(target_lang):
        raise NotFoundError(f"no vocabulary with language {target_lang!r}")
    found = dataset.store.mappings_from(term, relations={RelationType.EQ})
    best: dict[tuple[str, str], TranslationCandidate] = {}
    # crosswalk-id order is not source-vocabulary order once ids hold "-"
    for crosswalk, mapping in sorted(found, key=lambda row: row[0].source_vocab):
        if not mapping.target.is_single:  # an EQ mapping always has a target
            continue
        if registry.vocabulary(crosswalk.target_vocab).language != target_lang:
            continue
        source = registry.vocabulary(crosswalk.source_vocab)
        if source_lang is not None and source.language != source_lang:
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
