"""Command line entry point: the full pipeline as subcommands.

One verb per pipeline stage: extract features, analyze a labeled corpus,
train and evaluate the voting ensemble, cluster an unlabeled corpus, predict
over an unlabeled corpus, spot-check flagged domains against a reputation
list, and generate synthetic corpora. All diagnostics go to stderr; data
outputs are CSV or .dsmodel files.

Exit codes: 0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import logging
import os
import sys

from . import analytics, corpus, evaluate, reputation, synthetic
from .cluster import KMeans, cluster_feature_histogram, write_centroids_csv
from .ensemble import MajorityVoteEnsemble
from .features import FEATURE_NAMES, distinct_features, extract_features, write_feature_csv
from .model_io import ModelIOError, load_model, save_model

log = logging.getLogger("domainsift")

DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# corpus loading


class _Replayed:
    """A text stream with the lines already read from it put back in front, for a
    parser that reads it by ``read(size)`` or line by line."""

    def __init__(self, head, rest):
        self._head, self._rest = head, rest

    def read(self, size):
        head, self._head = self._head, ""
        return head or self._rest.read(size)

    def __iter__(self):
        yield from io.StringIO(self._head)
        self._head = ""
        yield from self._rest


def _sniff_format(fh, path):
    """The corpus format of text stream ``fh``, from its first non-blank line, and
    the text read from ``fh`` to find it."""
    head = []
    while line := fh.readline():
        head.append(line)
        line = line.strip()
        if not line:
            continue
        cells = [cell.strip().lower() for cell in line.split(",")]
        if "\t" in line:
            fmt = "census"
        elif cells[: len(FEATURE_NAMES)] == list(FEATURE_NAMES):
            fmt = "features"
        elif "class" in cells and ("host" in cells or "domain" in cells):
            fmt = "labeled"
        else:
            fmt = "domains"
        return fmt, "".join(head)
    raise corpus.ParseError(f"{path}: file is empty")


def _load_table(path, mode, max_rows=None):
    """The domain corpus at ``path``, parsed and deduplicated."""
    # the file is opened once, so a pipe works: the parser reads the sniffed lines again
    with corpus.open_corpus_text(path) as fh:
        fmt, head = _sniff_format(fh, path)
        log.info("input %s detected as %s corpus", path, fmt)
        if fmt == "features":
            raise corpus.ParseError(f"{path} is a feature CSV; this command needs a domain corpus")
        parse = {"census": corpus.parse_census_lines, "labeled": corpus.parse_labeled_csv,
                 "domains": corpus.parse_domain_lines}[fmt]
        # a parser's own errors name the row; the path is added here
        try:
            table, stats = parse(_Replayed(head, fh), mode=mode, max_rows=max_rows)
        except corpus.ParseError as exc:
            raise corpus.ParseError(f"{path}: {exc}") from None
    for reason in stats.errors:
        log.warning("skipped %s", reason)
    table, conflicts = corpus.dedupe(table)
    log.info(
        "parsed %d rows: %d unique domains, %d skipped, %d label conflicts",
        stats.total_rows, len(table), stats.skipped_rows, len(conflicts),
    )
    if not len(table):
        raise corpus.ParseError(f"{path}: no usable rows")
    return table


def _load_data(path, mode, max_rows=None):
    """The domain corpus at ``path``, parsed, deduplicated and reduced to features:
    ``(table, X)``, with row i of ``X`` the features of row i of ``table``."""
    table = _load_table(path, mode, max_rows)
    X, _ = extract_features(table)
    return table, X


def _require_labels(table, path):
    """The labels of ``table``; an unlabeled corpus is an error."""
    if table.label is None:
        raise corpus.ParseError(f"{path}: this command needs a fully labeled corpus")
    return table.label


# ---------------------------------------------------------------------------
# run options: each comes from its flag alone, with argparse's default


def _prepare(args):
    """Check and log the run options the command's own flags name, before any input is read."""
    log.info("resolved options: %s", _checked_options(args))


def _checked_options(args):
    """The run options the command's own flags name, by name, each checked."""
    opt = {name: getattr(args, name) for name in
           ("mode", "seed", "max_rows", "test_fraction", "cv", "k") if hasattr(args, name)}
    if opt.get("max_rows") is not None and opt["max_rows"] < 1:
        raise ValueError(f"max_rows must be at least 1, got {opt['max_rows']}")
    if "seed" in opt and opt["seed"] < 0:
        raise ValueError(f"--seed must be at least 0, got {opt['seed']}")
    if "test_fraction" in opt and not 0 < opt["test_fraction"] < 1:
        raise ValueError(f"--test-fraction must be in (0, 1), got {opt['test_fraction']}")
    if "cv" in opt and (opt["cv"] < 0 or opt["cv"] == 1):
        raise ValueError(f"--cv must be 0 or at least 2, got {opt['cv']}")
    if "k" in opt and opt["k"] < 1:
        raise ValueError(f"--k must be at least 1, got {opt['k']}")
    return opt


def _prepare_with_model(args):
    """Check the run options, then load the ``--model`` ensemble, if one is named. Without
    ``--mode``, the mode is the one the model records, else sld; another one is refused."""
    opt = _checked_options(args)
    model = trained_mode = None
    if args.model:
        model = load_model(args.model, expected_kind="ensemble")
        trained_mode = model.metadata_.get("mode")
    if args.mode is None:
        args.mode = "sld" if trained_mode is None else trained_mode
    opt["mode"] = args.mode
    log.info("resolved options: %s", opt)
    if trained_mode is not None and args.mode != corpus.resolve_mode(trained_mode):
        raise ValueError(
            f"mode {args.mode!r} does not match {args.model}, trained in {trained_mode!r} mode"
        )
    return model


def _out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_histograms(out, histogram):
    """Write ``hist_<feature>.csv`` for each feature; ``histogram(j, name)`` builds column j's."""
    for j, name in enumerate(FEATURE_NAMES):
        with open(os.path.join(out, f"hist_{name}.csv"), "w", encoding="utf-8", newline="") as fh:
            analytics.write_histogram_csv(fh, histogram(j, name))


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args):
    _prepare(args)
    table, X = _load_data(args.in_path, args.mode, args.max_rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv(fh, X, table.label)
    log.info("wrote %d feature rows to %s", X.shape[0], args.out)
    return 0


def cmd_analyze(args):
    _prepare(args)
    table, X = _load_data(args.in_path, args.mode, args.max_rows)
    y = _require_labels(table, args.in_path)
    out = _out_dir(args.out)

    report = analytics.summarize(X, y)
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_summary_csv(fh, report)

    correlation = analytics.correlation_table(X, y)
    with open(os.path.join(out, "correlation.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_correlation_csv(fh, correlation)

    _write_histograms(out, lambda j, name: analytics.histogram_pdf(X[:, j], y, feature_name=name))

    print(analytics.format_correlation_table(correlation))
    log.info("analysis written to %s", out)
    return 0


def cmd_train(args):
    _prepare(args)
    table, X = _load_data(args.in_path, args.mode, args.max_rows)
    model = MajorityVoteEnsemble().fit(X, _require_labels(table, args.in_path))
    meta = {"source": os.path.basename(args.in_path), "mode": args.mode, "n_rows": int(X.shape[0])}
    info = save_model(model, args.out, metadata=meta)
    log.info("saved ensemble (%d training rows) to %s", X.shape[0], args.out)
    print(f"{info['path']}  sha256:{info['sha256'][:16]}  {info['bytes']} bytes")
    return 0


def _member_rows(model, X, y):
    labels, votes, names = model.predict_with_votes(X)
    return evaluate.score_predictions([*zip(names, votes.T), ("ensemble", labels)], y)


def cmd_evaluate(args):
    model = _prepare_with_model(args)
    if args.cv and model is not None:
        raise ValueError("--cv refits the ensemble on every fold and cannot score --model")
    table, X = _load_data(args.in_path, args.mode, args.max_rows)
    y = _require_labels(table, args.in_path)

    if args.cv:
        results = _cross_validate_members(args, X, y)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                evaluate.write_cv_csv(fh, results)
        for name, cv in results:
            print(
                f"{name}: accuracy {100 * cv.mean.accuracy:.1f}+-{100 * cv.std.accuracy:.1f}%"
                f"  f_score {cv.mean.f_score:.2f}+-{cv.std.f_score:.2f}"
            )
        return 0

    train_idx, test_idx = evaluate.stratified_split(
        y, test_fraction=args.test_fraction, seed=args.seed
    )
    if model is None:
        model = MajorityVoteEnsemble().fit(X[train_idx], y[train_idx])
    rows = _member_rows(model, X[test_idx], y[test_idx])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            evaluate.write_report_csv(fh, rows)
    print(evaluate.format_report(rows))
    return 0


def _cross_validate_members(args, X, y):
    per_name = {}
    for train_idx, test_idx in evaluate.stratified_kfold(y, args.cv, seed=args.seed):
        model = MajorityVoteEnsemble().fit(X[train_idx], y[train_idx])
        for name, _, m in _member_rows(model, X[test_idx], y[test_idx]):
            per_name.setdefault(name, []).append(m)
    return [(name, evaluate.summarize_folds(folds)) for name, folds in per_name.items()]


def cmd_cluster(args):
    _prepare(args)
    # from here on the rows are needed only as distinct feature vectors
    domains = _load_table(args.in_path, args.mode, args.max_rows).domain_part
    distinct = distinct_features(domains)
    del domains
    model = KMeans(k=args.k, seed=args.seed).fit(distinct)
    labels = model.predict(distinct.rows)
    out = _out_dir(args.out)
    with open(os.path.join(out, "centroids.csv"), "w", encoding="utf-8", newline="") as fh:
        write_centroids_csv(fh, model)
    _write_histograms(out, lambda j, name: cluster_feature_histogram(distinct, labels, j))
    if args.model_out:
        meta = {"source": os.path.basename(args.in_path), "seed": args.seed}
        save_model(model, args.model_out, metadata=meta)
        log.info("saved cluster model to %s", args.model_out)
    sizes = ", ".join(
        f"cluster {c + 1}: {int(s)}" for c, s in enumerate(model.sizes_)
    )
    print(sizes)
    print(
        f"length centroids: {', '.join(f'{v:.4f}' for v in model.centroids_[:, 0])}"
    )
    print(f"inertia {model.inertia_:.2f} after {model.n_iter_} iterations")
    return 0


def cmd_predict(args):
    model = _prepare_with_model(args)
    table = _load_table(args.in_path, args.mode, args.max_rows)
    # members vote on the distinct feature vectors; only the per-row outputs map back
    distinct = distinct_features(table.domain_part)
    labels, votes, names = model.predict_with_votes(distinct.rows)
    row_labels = labels[distinct.inverse].tolist()

    out = _out_dir(args.out)
    with open(os.path.join(out, "predictions.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["host", "domain", "prediction", *(f"vote_{n}" for n in names)])
        writer.writerows(
            [host, domain, label, *row_votes]
            for host, domain, label, row_votes in zip(
                table.raw_host, table.domain_part, row_labels, votes[distinct.inverse].tolist()
            )
        )
    with open(os.path.join(out, "flagged.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(host + "\n" for host, label in zip(table.raw_host, row_labels) if label)
    _write_histograms(out, lambda j, name: analytics.histogram_pdf(
        distinct.rows[:, j], labels, feature_name=name, weights=distinct.counts))

    flagged = sum(row_labels)
    n = len(row_labels)
    print(f"{flagged} of {n} domains flagged as DGA ({100 * flagged / n:.2f}%)")
    return 0


def cmd_reputation_check(args):
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be at least 0, got {args.sample}")
    _prepare(args)
    with corpus.open_corpus_text(args.in_path) as fh:
        # the rule of corpus.parse_domain_lines: blank lines and comments skipped once stripped
        names = (line.strip() for line in fh)
        domains = list(itertools.islice(
            (name for name in names if name and not name.startswith("#")), args.max_rows))
    try:
        badlist = reputation.read_badlist(args.badlist)
    except corpus.ParseError as exc:  # main would call it a corpus error
        raise ValueError(f"bad-list error: {exc}") from None
    if args.sample is not None:
        domains = reputation.sample(domains, args.sample, args.seed)
    listed = [domain.lower() in badlist for domain in domains]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            reputation.write_reputation_csv(fh, domains, listed)
    counts = {"suspicious": sum(listed), "unknown": len(listed) - sum(listed)}
    print(", ".join(f"{verdict}: {count}" for verdict, count in counts.items() if count))
    return 0


def cmd_generate(args):
    for flag, size in (("--n-legit", args.n_legit), ("--n-dga", args.n_dga),
                       ("--census-n", args.census_n)):
        if size < 0:
            raise ValueError(f"{flag} must be at least 0, got {size}")
    if not 0.0 <= args.dga_fraction <= 1.0:
        raise ValueError(f"--dga-fraction must be in [0, 1], got {args.dga_fraction}")
    _prepare(args)
    out = _out_dir(args.out)

    domains, labels = synthetic.generate_labeled_corpus(
        n_legit=args.n_legit, n_dga=args.n_dga, seed=args.seed
    )
    labeled_path = os.path.join(out, "labeled.csv")
    synthetic.write_labeled_csv(labeled_path, domains, labels)

    hosts, ips, truth = synthetic.generate_census(
        n=args.census_n, dga_fraction=args.dga_fraction, seed=args.seed + 1
    )
    census_path = os.path.join(out, "census.tsv.gz" if args.gzip else "census.tsv")
    synthetic.write_census_file(census_path, hosts, ips)
    truth_path = os.path.join(out, "census_truth.csv")
    synthetic.write_truth_csv(truth_path, hosts, truth)

    print(labeled_path)
    print(census_path)
    print(truth_path)
    log.info(
        "generated %d labeled domains and %d census rows (%d planted DGA)",
        len(domains), len(hosts), int(truth.sum()),
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, *, out_required=True, out_help="output path", with_mode=True,
                with_seed=True):
    sp.add_argument("--in", dest="in_path", required=True, help="input corpus path")
    sp.add_argument("--out", required=out_required, help=out_help)
    if with_mode:
        sp.add_argument("--mode", choices=corpus.MODES, default="sld",
                        help="domain normalization mode (default %(default)s)")
    if with_seed:
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed (default %(default)s)")
    sp.add_argument("--max-rows", dest="max_rows", type=int, help="cap on corpus rows read")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="domainsift",
        description="Lexical DGA/typosquatting domain detection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("extract", help="compute the 8 lexical features of a corpus")
    _add_common(sp, out_help="feature CSV to write", with_seed=False)
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("analyze", help="summary stats, histograms, correlation table")
    _add_common(sp, out_help="output directory for analysis CSVs", with_seed=False)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("train", help="train the 5-member voting ensemble")
    _add_common(sp, out_help="model file to write (.dsmodel)", with_seed=False)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="train/test metrics for all classifiers")
    _add_common(sp, out_required=False, out_help="report CSV to write")
    sp.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.3,
                    help="held-out fraction (default %(default)s)")
    sp.add_argument("--cv", type=int, default=0,
                    help="use k-fold cross-validation instead of a split")
    sp.add_argument("--model", help="evaluate an existing .dsmodel instead of training; "
                                    "without --mode, its mode is used")
    sp.set_defaults(func=cmd_evaluate, mode=None)

    sp = sub.add_parser("cluster", help="k-means clustering of an unlabeled corpus")
    _add_common(sp, out_help="output directory for cluster CSVs")
    sp.add_argument("--k", type=int, default=2, help="number of clusters (default %(default)s)")
    sp.add_argument("--model-out", dest="model_out", help="also save the cluster model here")
    sp.set_defaults(func=cmd_cluster, mode="full")

    sp = sub.add_parser("predict", help="ensemble prediction over an unlabeled corpus")
    _add_common(sp, out_help="output directory for predictions", with_seed=False)
    sp.add_argument("--model", required=True,
                    help="trained ensemble .dsmodel; without --mode, its mode is used")
    sp.set_defaults(func=cmd_predict, mode=None)

    sp = sub.add_parser("reputation-check", help="spot-check flagged domains against a bad-list")
    _add_common(sp, out_required=False, out_help="results CSV to write", with_mode=False)
    sp.add_argument("--badlist", required=True, help="local bad-list file (one domain per line)")
    sp.add_argument("--sample", type=int, help="check a seeded sample of this size (default all)")
    sp.set_defaults(func=cmd_reputation_check)

    sp = sub.add_parser("generate", help="generate synthetic labeled + census corpora")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="RNG seed (default %(default)s)")
    sp.add_argument("--n-legit", dest="n_legit", type=int, default=synthetic.DEFAULT_N_LEGIT)
    sp.add_argument("--n-dga", dest="n_dga", type=int, default=synthetic.DEFAULT_N_DGA)
    sp.add_argument("--census-n", dest="census_n", type=int, default=30_000)
    sp.add_argument("--dga-fraction", dest="dga_fraction", type=float, default=0.1)
    sp.add_argument("--gzip", action="store_true", help="gzip the census file")
    sp.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args) or 0
    except ModelIOError as exc:
        log.error("model error: %s", exc)
        return 1
    except (corpus.ParseError, corpus.DomainError) as exc:
        log.error("corpus error: %s", exc)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
