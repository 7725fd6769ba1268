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
import itertools
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytics, corpus, evaluate, reputation, synthetic
from .base import distinct_rows
from .cluster import KMeans, cluster_feature_histogram, write_centroids_csv
from .config import load_config
from .ensemble import MajorityVoteEnsemble
from .features import FEATURE_NAMES, extract_features, read_feature_csv, write_feature_csv
from .model_io import ModelIOError, load_model, save_model

log = logging.getLogger("domainsift")

DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# corpus loading


@dataclass(slots=True)
class LoadedData:
    """A corpus reduced to its feature matrix, with its rows aligned."""

    table: corpus.DomainTable | None  # None when the input was already a feature CSV
    X: np.ndarray
    y: np.ndarray | None


def _sniff_format(path):
    with corpus.open_corpus_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "\t" in line:
                return "census"
            head = [cell.strip().lower() for cell in line.split(",")]
            if head[: len(FEATURE_NAMES)] == list(FEATURE_NAMES):
                return "features"
            if "class" in head and ("host" in head or "domain" in head):
                return "labeled"
            return "domains"
    raise corpus.ParseError(f"{path}: file is empty")


def _load_data(path, mode, max_rows=None, allow_features=True):
    fmt = _sniff_format(path)
    log.info("input %s detected as %s corpus", path, fmt)
    if fmt == "features":
        if not allow_features:
            raise corpus.ParseError(
                f"{path} is a feature CSV; this command needs a domain corpus"
            )
        with corpus.open_corpus_text(path) as fh:
            X, y = read_feature_csv(fh)
        return LoadedData(table=None, X=X, y=y)

    with corpus.open_corpus_text(path) as fh:
        if fmt == "census":
            table, stats = corpus.parse_census_lines(fh, max_rows=max_rows, mode=mode)
        elif fmt == "labeled":
            table, stats = corpus.parse_labeled_csv(fh, mode=mode, max_rows=max_rows)
        else:
            table, stats = corpus.parse_domain_lines(fh, mode=mode, max_rows=max_rows)
    for reason in stats.errors:
        log.warning("skipped %s", reason)
    table, conflicts = corpus.dedupe(table)
    log.info(
        "parsed %d rows: %d unique domains, %d skipped, %d label conflicts",
        stats.total_rows, len(table), stats.skipped_rows, len(conflicts),
    )
    if not len(table):
        raise corpus.ParseError(f"{path}: no usable rows")
    X, y = extract_features(table)
    return LoadedData(table=table, X=X, y=y)


def _require_labels(data, path):
    if data.y is None:
        raise corpus.ParseError(f"{path}: this command needs a fully labeled corpus")


# ---------------------------------------------------------------------------
# option resolution (CLI flag > config file > built-in default)


def _resolve(args, name, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return args.run_config.get(name, default)


def _prepare(args, mode_default="sld"):
    try:
        args.run_config = load_config(args.config) if getattr(args, "config", None) else {}
    except corpus.ParseError as exc:  # main would call it a corpus error
        raise ValueError(f"config error: {exc}") from None
    resolved = {
        "mode": _resolve(args, "mode", mode_default),
        "seed": _resolve(args, "seed", DEFAULT_SEED),
        "max_rows": _resolve(args, "max_rows", None),
    }
    if resolved["max_rows"] is not None and resolved["max_rows"] < 1:
        raise ValueError(f"max_rows must be at least 1, got {resolved['max_rows']}")
    if hasattr(args, "seed") and resolved["seed"] < 0:
        raise ValueError(f"--seed must be at least 0, got {resolved['seed']}")
    if hasattr(args, "test_fraction"):
        resolved["test_fraction"] = _resolve(args, "test_fraction", 0.3)
        if not 0 < resolved["test_fraction"] < 1:
            raise ValueError(f"--test-fraction must be in (0, 1), got {resolved['test_fraction']}")
    if hasattr(args, "cv"):
        resolved["cv"] = _resolve(args, "cv", 0)
        if resolved["cv"] < 0 or resolved["cv"] == 1:
            raise ValueError(f"--cv must be 0 or at least 2, got {resolved['cv']}")
    if hasattr(args, "k"):
        resolved["k"] = _resolve(args, "k", 2)
        if resolved["k"] < 1:
            raise ValueError(f"--k must be at least 1, got {resolved['k']}")
    log.info("resolved options: %s", resolved)
    return resolved


def _prepare_with_model(args):
    """Load the ``--model`` ensemble and resolve options; the mode follows the model's."""
    model = load_model(args.model, expected_kind="ensemble")
    trained_mode = model.metadata_.get("mode")
    opt = _prepare(args, mode_default=trained_mode or "sld")
    if trained_mode and corpus.resolve_mode(opt["mode"]) != corpus.resolve_mode(trained_mode):
        raise ValueError(
            f"mode {opt['mode']!r} does not match {args.model}, trained in {trained_mode!r} mode"
        )
    return opt, model


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
    opt = _prepare(args, mode_default="sld")
    data = _load_data(args.in_path, opt["mode"], opt["max_rows"], allow_features=False)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv(fh, data.X, data.y)
    log.info("wrote %d feature rows to %s", data.X.shape[0], args.out)
    return 0


def cmd_analyze(args):
    opt = _prepare(args, mode_default="sld")
    data = _load_data(args.in_path, opt["mode"], opt["max_rows"])
    _require_labels(data, args.in_path)
    out = _out_dir(args.out)

    report = analytics.summarize(data.X, data.y)
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_summary_csv(fh, report)

    table = analytics.correlation_table(data.X, data.y)
    with open(os.path.join(out, "correlation.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_correlation_csv(fh, table)

    _write_histograms(
        out, lambda j, name: analytics.histogram_pdf(data.X[:, j], data.y, feature_name=name)
    )

    print(analytics.format_correlation_table(table))
    log.info("analysis written to %s", out)
    return 0


def cmd_train(args):
    opt = _prepare(args, mode_default="sld")
    data = _load_data(args.in_path, opt["mode"], opt["max_rows"])
    _require_labels(data, args.in_path)
    model = MajorityVoteEnsemble(seed=opt["seed"]).fit(data.X, data.y)
    meta = {
        "source": os.path.basename(args.in_path),
        "mode": opt["mode"],
        "seed": opt["seed"],
        "n_rows": int(data.X.shape[0]),
    }
    info = save_model(model, args.out, metadata=meta)
    log.info("saved ensemble (%d training rows) to %s", data.X.shape[0], args.out)
    print(f"{info['path']}  sha256:{info['sha256'][:16]}  {info['bytes']} bytes")
    return 0


def _member_rows(model, X, y):
    labels, votes, names = model.predict_with_votes(X)
    return evaluate.score_predictions([*zip(names, votes.T), ("ensemble", labels)], y)


def cmd_evaluate(args):
    opt, model = _prepare_with_model(args) if args.model else (_prepare(args), None)
    if opt["cv"] and model is not None:
        raise ValueError("--cv refits the ensemble on every fold and cannot score --model")
    data = _load_data(args.in_path, opt["mode"], opt["max_rows"])
    _require_labels(data, args.in_path)

    if opt["cv"]:
        results = _cross_validate_members(opt, data)
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
        data.y, test_fraction=opt["test_fraction"], seed=opt["seed"]
    )
    if model is None:
        model = MajorityVoteEnsemble(seed=opt["seed"]).fit(data.X[train_idx], data.y[train_idx])
    rows = _member_rows(model, data.X[test_idx], data.y[test_idx])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            evaluate.write_report_csv(fh, rows)
    print(evaluate.format_report(rows))
    return 0


def _cross_validate_members(opt, data):
    per_name = {}
    for train_idx, test_idx in evaluate.stratified_kfold(data.y, opt["cv"], seed=opt["seed"]):
        model = MajorityVoteEnsemble(seed=opt["seed"]).fit(data.X[train_idx], data.y[train_idx])
        for name, _, m in _member_rows(model, data.X[test_idx], data.y[test_idx]):
            per_name.setdefault(name, []).append(m)
    return [(name, evaluate.summarize_folds(folds)) for name, folds in per_name.items()]


def cmd_cluster(args):
    opt = _prepare(args, mode_default="full")
    # from here on the rows are needed only as distinct feature vectors
    distinct = distinct_rows(_load_data(args.in_path, opt["mode"], opt["max_rows"]).X)
    model = KMeans(k=opt["k"], seed=opt["seed"]).fit(distinct)
    labels = model.predict(distinct.rows)
    out = _out_dir(args.out)
    with open(os.path.join(out, "centroids.csv"), "w", encoding="utf-8", newline="") as fh:
        write_centroids_csv(fh, model)
    _write_histograms(out, lambda j, name: cluster_feature_histogram(distinct, labels, j))
    if args.model_out:
        save_model(model, args.model_out, metadata={"source": os.path.basename(args.in_path)})
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
    opt, model = _prepare_with_model(args)
    data = _load_data(args.in_path, opt["mode"], opt["max_rows"], allow_features=False)
    labels, votes, names = model.predict_with_votes(data.X)

    out = _out_dir(args.out)
    with open(os.path.join(out, "predictions.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["host", "domain", "prediction", *(f"vote_{n}" for n in names)])
        writer.writerows(
            [host, domain, label, *row_votes]
            for host, domain, label, row_votes in zip(
                data.table.raw_host, data.table.domain_part, labels.tolist(), votes.tolist()
            )
        )
    with open(os.path.join(out, "flagged.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(
            host + "\n" for host, label in zip(data.table.raw_host, labels.tolist()) if label
        )
    _write_histograms(
        out, lambda j, name: analytics.histogram_pdf(data.X[:, j], labels, feature_name=name)
    )

    flagged = int(labels.sum())
    print(f"{flagged} of {labels.size} domains flagged as DGA ({100 * flagged / labels.size:.2f}%)")
    return 0


def cmd_reputation_check(args):
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be at least 0, got {args.sample}")
    opt = _prepare(args, mode_default="full")
    with corpus.open_corpus_text(args.in_path) as fh:
        lines = (line.strip() for line in fh if line.strip() and not line.startswith("#"))
        domains = list(itertools.islice(lines, opt["max_rows"]))
    try:
        badlist = reputation.read_badlist(args.badlist)
    except corpus.ParseError as exc:  # main would call it a corpus error
        raise ValueError(f"bad-list error: {exc}") from None
    if args.sample is not None:
        domains = reputation.sample(domains, args.sample, opt["seed"])
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
    opt = _prepare(args, mode_default="sld")
    out = _out_dir(args.out)
    seed = opt["seed"]

    domains, labels = synthetic.generate_labeled_corpus(
        n_legit=args.n_legit, n_dga=args.n_dga, seed=seed
    )
    labeled_path = os.path.join(out, "labeled.csv")
    synthetic.write_labeled_csv(labeled_path, domains, labels)

    hosts, ips, truth = synthetic.generate_census(
        n=args.census_n, dga_fraction=args.dga_fraction, seed=seed + 1
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
        sp.add_argument("--mode", choices=("full", "sld"), help="domain normalization mode")
    if with_seed:
        sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--max-rows", dest="max_rows", type=int, help="cap on corpus rows read")
    sp.add_argument("--config", help="key=value config file with option defaults")


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
    _add_common(sp, out_help="model file to write (.dsmodel)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="train/test metrics for all classifiers")
    _add_common(sp, out_required=False, out_help="report CSV to write")
    sp.add_argument("--test-fraction", dest="test_fraction", type=float,
                    help="held-out fraction (default 0.3)")
    sp.add_argument("--cv", type=int, help="use k-fold cross-validation instead of a split")
    sp.add_argument("--model", help="evaluate an existing .dsmodel instead of training")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("cluster", help="k-means clustering of an unlabeled corpus")
    _add_common(sp, out_help="output directory for cluster CSVs")
    sp.add_argument("--k", type=int, help="number of clusters (default 2)")
    sp.add_argument("--model-out", dest="model_out", help="also save the cluster model here")
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("predict", help="ensemble prediction over an unlabeled corpus")
    _add_common(sp, out_help="output directory for predictions", with_seed=False)
    sp.add_argument("--model", required=True, help="trained ensemble .dsmodel")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("reputation-check", help="spot-check flagged domains against a bad-list")
    _add_common(sp, out_required=False, out_help="results CSV to write", with_mode=False)
    sp.add_argument("--badlist", required=True, help="local bad-list file (one domain per line)")
    sp.add_argument("--sample", type=int, help="check a seeded sample of this size (default all)")
    sp.set_defaults(func=cmd_reputation_check)

    sp = sub.add_parser("generate", help="generate synthetic labeled + census corpora")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--n-legit", dest="n_legit", type=int, default=synthetic.DEFAULT_N_LEGIT)
    sp.add_argument("--n-dga", dest="n_dga", type=int, default=synthetic.DEFAULT_N_DGA)
    sp.add_argument("--census-n", dest="census_n", type=int, default=30_000)
    sp.add_argument("--dga-fraction", dest="dga_fraction", type=float, default=0.1)
    sp.add_argument("--gzip", action="store_true", help="gzip the census file")
    sp.add_argument("--config", help="key=value config file with option defaults")
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
