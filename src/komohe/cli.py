"""Operator command line: import/export, lookups, expansion, inference, serving.

Machine-readable results go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain error, 2 usage error.

The working data lives in a directory (flag --data, else $KOMOHE_DATA,
else ./komohe-data) laid out by komohe.dataset. run() loads it once per
command and hands the dataset to the command's op; for a writing command it
then saves it once, if the op added anything, and prints the op's summary
only after the save succeeds. A writing command holds the data directory's
writer lock from before the load until after the save; while another writer
holds it, the command fails at once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

from .assessment import load_corpus, sample_assessment
from .dataset import Dataset, rejected_line, save_dataset, translate, writer_lock
from .errors import ConflictError, KomoheError
from .inference import detect_variant_mappings, export_inferred_tsv, infer_pivot
from .queries import ExpansionConfig, expand_query, parse_query, render_query
from .service import ServiceConfig, serve
from .skos import export_skos, import_skos
from .store import RelationType, RelevanceRating, parse_relations, split_list, tsv_row

DATA_ENV = "KOMOHE_DATA"

# a writing op's summary, printed by run() only once the save succeeded:
# its stdout lines, then its stderr lines
Summary = tuple[list[str], list[str]]


def data_dir(args: argparse.Namespace) -> Path:
    if args.data:
        return Path(args.data)
    return Path(os.environ.get(DATA_ENV, "komohe-data"))


def load_dataset(args: argparse.Namespace) -> Dataset:
    directory = data_dir(args)
    if not directory.exists():
        return Dataset.empty()
    return Dataset.load([directory])


def _sizes(dataset: Dataset) -> tuple[dict[str, int], int]:
    """Each vocabulary's term count and the mapping count: ops only ever add, so
    equal sizes before and after an op mean it changed nothing a save writes."""
    registry = dataset.registry
    terms = {vocab.id: registry.term_count(vocab.id) for vocab in registry.vocabularies()}
    return terms, sum(len(crosswalk.mappings) for crosswalk in dataset.store.crosswalks())


def _print_mapping_rows(results) -> None:
    for crosswalk, mapping in results:
        target_vocab = crosswalk.target_vocab if mapping.target else ""
        print(tsv_row(crosswalk.source_vocab, mapping, target_vocab))


# ----------------------------------------------------------------------
# subcommands


def cmd_import(dataset: Dataset, args: argparse.Namespace) -> Summary:
    with open(args.file, encoding="utf-8") as fh:
        report = dataset.store.import_tsv(fh)
    out = [
        f"crosswalks_created\t{report.crosswalks_created}",
        f"mappings_added\t{report.mappings_added}",
        f"errors\t{len(report.errors)}",
    ]
    err = [rejected_line(args.file, line_no, reason) for line_no, reason in report.errors]
    return out, err


def cmd_export(dataset: Dataset, args: argparse.Namespace) -> None:
    ids = args.crosswalk or None
    sys.stdout.write(dataset.store.export_tsv(ids))


def cmd_terms(dataset: Dataset, args: argparse.Namespace) -> Summary:
    with open(args.file, encoding="utf-8") as fh:
        added = dataset.registry.import_terms(fh, vocab_id=args.vocab)
    held = dataset.registry.term_count(args.vocab)
    return [f"terms_added\t{added}"], [f"vocabulary {args.vocab!r} now holds {held} terms"]


def cmd_lookup(dataset: Dataset, args: argparse.Namespace) -> None:
    relations = parse_relations(args.relation) if args.relation else None
    min_rating = RelevanceRating.parse(args.min_rating) if args.min_rating else None
    results = dataset.store.mappings_from(
        args.term,
        source_vocab=args.vocab,
        relations=relations,
        min_rating=min_rating,
    )
    _print_mapping_rows(results)


def cmd_reverse(dataset: Dataset, args: argparse.Namespace) -> None:
    results = dataset.store.mappings_to(args.term, target_vocab=args.vocab)
    _print_mapping_rows(results)


def cmd_expand(dataset: Dataset, args: argparse.Namespace) -> None:
    config = ExpansionConfig(
        relations=frozenset(parse_relations(args.relations)),
        target_vocabs=frozenset(split_list(args.vocabs)) if args.vocabs else None,
        max_terms_per_leaf=args.max,
    )
    ast = parse_query(args.query)
    expanded, trace = expand_query(ast, dataset.store, config)
    print(render_query(expanded))
    for entry in trace:
        for added in entry.additions:
            print(
                f"+ {entry.original!r} <- {added.term!r} "
                f"({added.source_vocab}->{added.target_vocab}, "
                f"{added.relation.symbol}, {added.rating.text or 'unrated'})",
                file=sys.stderr,
            )


def cmd_translate(dataset: Dataset, args: argparse.Namespace) -> None:
    candidates = translate(dataset, args.term, args.to, source_lang=getattr(args, "from"))
    for c in candidates:
        print("\t".join((c.term, c.vocab, c.rating.text, c.path)))


def cmd_infer(dataset: Dataset, args: argparse.Namespace) -> Summary | None:
    inferred = infer_pivot(dataset.store, args.source, args.target, args.via)
    sys.stdout.write(export_inferred_tsv(inferred, args.source, args.target))
    if args.writes:  # --promote
        crosswalk = dataset.store.ensure_crosswalk(args.source, args.target)
        promoted = 0
        for m in inferred:
            try:
                dataset.store.add_mapping(crosswalk.id, m.as_mapping())
            except ConflictError:
                continue
            promoted += 1
        return [], [f"promoted {promoted} mappings into {crosswalk.id}"]


def cmd_variants(dataset: Dataset, args: argparse.Namespace) -> None:
    for c in detect_variant_mappings(dataset.store, args.target):
        labels = (target.label for target in c.targets)
        print("\t".join((c.term, *c.vocab_pair, c.target_vocab, *labels)))


def cmd_check(dataset: Dataset, args: argparse.Namespace) -> None:
    with open(args.corpus, encoding="utf-8") as fh:
        load = load_corpus(fh)
    for line_no, reason in load.errors:
        print(rejected_line(args.corpus, line_no, reason), file=sys.stderr)
    report = sample_assessment(
        dataset.store, args.crosswalk, load.corpus, args.sample, args.seed
    )
    sys.stdout.write(report.to_tsv())
    print(
        f"sampled {report.sample_size} mappings, "
        f"empty-target rate {report.empty_target_rate:.2f}",
        file=sys.stderr,
    )


def cmd_skos_export(dataset: Dataset, args: argparse.Namespace) -> None:
    export = export_skos(dataset.store, args.crosswalk or None)
    sys.stdout.write(export.text)
    print(
        f"skipped {export.skipped_null} null and "
        f"{export.skipped_combination} combination mappings",
        file=sys.stderr,
    )


def cmd_skos_import(dataset: Dataset, args: argparse.Namespace) -> Summary:
    with open(args.file, encoding="utf-8") as fh:
        report = import_skos(dataset.store, fh, args.source, args.target)
    err = [rejected_line(args.file, line_no, reason) for line_no, reason in report.errors]
    return [f"mappings_added\t{report.mappings_added}"], err


def cmd_stats(dataset: Dataset, args: argparse.Namespace) -> None:
    columns = [*(r.symbol for r in RelationType), *(r.text or "unrated" for r in RelevanceRating)]
    print("\t".join(["#crosswalk", "mappings", *columns]))
    for crosswalk_id, stats in dataset.store.stats().items():
        counts = [stats.mapping_count, *(stats.relations[r] for r in RelationType)]
        counts += [stats.ratings[r] for r in RelevanceRating]
        print("\t".join([crosswalk_id, *map(str, counts)]))


def cmd_serve(args: argparse.Namespace) -> int:
    config = ServiceConfig.from_file(Path(args.config)) if args.config else ServiceConfig()
    # replace() re-runs ServiceConfig's checks on the flag values too
    config = dataclasses.replace(
        config,
        host=args.host or config.host,
        port=config.port if args.port is None else args.port,
        data_paths=[data_dir(args)] if args.data or not config.data_paths else config.data_paths,
    )
    return serve(config)


# ----------------------------------------------------------------------
# parser


@functools.cache  # parse_args leaves the tree as it is, so one process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="komohe",
        description="Terminology mapping engine: crosswalks, query expansion, "
        "pivot inference, SKOS/TSV exchange, HTTP lookup service.",
    )
    parser.add_argument(
        "--data",
        help=f"data directory (default: ${DATA_ENV} or ./komohe-data)",
    )
    parser.set_defaults(writes=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="merge a crosswalk TSV file into the store")
    p.add_argument("file")
    p.set_defaults(func=cmd_import, writes=True)

    p = sub.add_parser("export", help="write crosswalks as TSV to stdout")
    p.add_argument("--crosswalk", action="append", help="crosswalk id, e.g. A-B (repeatable)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("terms", help="load a term-list file into a vocabulary")
    p.add_argument("vocab")
    new_vocab = "a new vocabulary takes its language, name and discipline from the header"
    p.add_argument("file", help=f"term list; {new_vocab}")
    p.set_defaults(func=cmd_terms, writes=True)

    p = sub.add_parser("lookup", help="mappings whose source is the given term")
    p.add_argument("term")
    p.add_argument("--vocab", help="restrict to one source vocabulary")
    p.add_argument("--relation", help="comma-separated relation symbols, e.g. =,^")
    ratings = [r.text for r in RelevanceRating if r.text]
    p.add_argument("--min-rating", dest="min_rating", choices=ratings)
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("reverse", help="mappings whose target contains the given term")
    p.add_argument("term")
    p.add_argument("--vocab", help="restrict to one target vocabulary")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("expand", help="expand a Boolean query with mapped terms")
    p.add_argument("query")
    relations = ",".join(relation.symbol for relation in ExpansionConfig.relations)
    p.add_argument("--relations", default=relations, help="comma-separated relation symbols")
    p.add_argument("--vocabs", help="comma-separated target vocabulary ids")
    max_terms = ExpansionConfig.max_terms_per_leaf
    p.add_argument("--max", type=int, default=max_terms, help="max added terms per leaf")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("translate", help="equivalent terms in another language")
    p.add_argument("term")
    p.add_argument("--to", required=True, help="target language (ISO 639-1)")
    p.add_argument("--from", dest="from", default=None, help="source language filter")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("infer", help="propose indirect mappings via a pivot vocabulary")
    p.add_argument("--from", dest="source", required=True, help="source vocabulary")
    p.add_argument("--to", dest="target", required=True, help="target vocabulary")
    p.add_argument("--via", required=True, help="pivot vocabulary")
    p.add_argument(
        "--promote",
        action="store_true",
        dest="writes",
        help="write the inferred mappings into the store",
    )
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("variants", help="report conflicting equivalence targets")
    p.add_argument("--target", required=True, help="target vocabulary to audit")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("check", help="assess sampled mappings against a corpus")
    p.add_argument("--crosswalk", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("skos-export", help="write mappings as SKOS N-Triples")
    p.add_argument("--crosswalk", action="append")
    p.set_defaults(func=cmd_skos_export)

    p = sub.add_parser("skos-import", help="read SKOS N-Triples into one crosswalk")
    p.add_argument("file")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_skos_import, writes=True)

    p = sub.add_parser("stats", help="per-crosswalk mapping tallies")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("serve", help="run the HTTP lookup service")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    p.set_defaults(func=cmd_serve)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, load, run the op and save if it wrote; returns the process exit code."""
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.func is cmd_serve:
            return cmd_serve(args)
        if not args.writes:
            args.func(load_dataset(args), args)
            return 0
        with writer_lock(data_dir(args)):
            dataset = load_dataset(args)
            loaded = _sizes(dataset)
            out, err = args.func(dataset, args)
            if _sizes(dataset) != loaded:  # a writer that added nothing leaves the files
                save_dataset(dataset, data_dir(args))
        for line in out:
            print(line)
        for line in err:
            print(line, file=sys.stderr)
        return 0
    except (KomoheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
