"""One traced run of a domainsift CLI command, timed from outside the package.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/trace_cli.py RUN_ID OUT_JSON -- <domainsift arguments>

Times ``import domainsift.cli``, then wraps each layer's public functions at
the module or class attribute where its caller looks them up at call time
(``cli`` imported ``extract_features``, ``load_model`` and friends by name, so
those are wrapped on ``domainsift.cli``), runs ``cli.main(argv)`` once and
writes the spans and layer counts to OUT_JSON after the command returns. The
package's own files are not touched.

A span is ``{name, run, parent, start, end}``; ``parent`` is the index of the
enclosing span in the same list. Spans stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.matrices = []  # feature matrices, reduced to distinct-row counts at the end

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a timed wrapper recording span ``name``.

        ``count(args, result)`` runs after the span has ended, so what it does
        is charged to the enclosing span and not to this one.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self.stack[-1] if self.stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, traced)


def install(tracer, cli):
    """Wrap every layer boundary the train, predict and cluster commands cross."""
    from domainsift import analytics, corpus, ensemble, learners, preprocessing
    from domainsift.cluster import KMeans

    def parse_counts(args, result):
        stats = result[1]
        tracer.add("corpus.rows_read", stats.total_rows)
        tracer.add("corpus.rows_skipped", stats.skipped_rows)

    def feature_counts(args, result):
        X = result[0]
        tracer.add("features.rows", X.shape[0])
        tracer.matrices.append(X)

    def fitted_count(counter, attr):
        return lambda args, result: tracer.add(counter, getattr(args[0], attr))

    tracer.wrap(corpus, "parse_census_lines", "corpus.parse", parse_counts)
    tracer.wrap(corpus, "parse_labeled_csv", "corpus.parse", parse_counts)
    tracer.wrap(
        corpus, "dedupe", "corpus.dedupe",
        lambda args, result: tracer.add("corpus.duplicates", len(args[0]) - len(result[0])),
    )
    tracer.wrap(cli, "extract_features", "features.extract", feature_counts)
    tracer.wrap(preprocessing.Standardizer, "transform", "preprocessing.transform")

    fit_counts = {
        "svm": fitted_count("learners.svm.steps", "n_iter_"),
        "logreg": fitted_count("learners.logreg.iters", "n_iter_"),
        "c45": fitted_count("learners.c45.nodes", "n_nodes_"),
    }
    members = {
        "c45": learners.C45Tree,
        "knn": learners.KNNClassifier,
        "logreg": learners.LogisticRegressionGD,
        "nb": learners.GaussianNaiveBayes,
        "svm": learners.PegasosSVM,
    }
    for kind, cls in members.items():
        tracer.wrap(cls, "fit", f"learners.{kind}.fit", fit_counts.get(kind))
        tracer.wrap(cls, "predict", f"learners.{kind}.predict")

    tracer.wrap(ensemble.MajorityVoteEnsemble, "fit", "ensemble.fit")
    tracer.wrap(ensemble.MajorityVoteEnsemble, "vote_matrix", "ensemble.vote")
    tracer.wrap(
        cli, "save_model", "model_io.save",
        lambda args, result: tracer.add("model_io.bytes", result["bytes"]),
    )
    tracer.wrap(
        cli, "load_model", "model_io.load",
        lambda args, result: tracer.add("model_io.bytes", os.path.getsize(args[0])),
    )
    tracer.wrap(KMeans, "fit", "cluster.fit", fitted_count("cluster.iters", "n_iter_"))
    tracer.wrap(cli, "cluster_feature_histogram", "cluster.histogram")
    # cli reads analytics.histogram_pdf through the module; cluster.py's own
    # by-name import stays unwrapped and is charged to cluster.histogram
    tracer.wrap(analytics, "histogram_pdf", "analytics.histogram")
    tracer.wrap(cli, "main", "cli")


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_cli.py RUN_ID OUT_JSON -- <domainsift arguments>", file=sys.stderr)
        return 2
    run_id, out_path, cli_argv = argv[0], argv[1], argv[3:]

    t0 = time.perf_counter()
    import domainsift.cli as cli

    import_s = time.perf_counter() - t0

    tracer = Tracer(run_id)
    install(tracer, cli)
    code = cli.main(cli_argv)

    import numpy as np

    tracer.add(
        "features.distinct_rows",
        sum(np.unique(X, axis=0).shape[0] for X in tracer.matrices),
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"run": run_id, "exit_code": code, "import_s": import_s,
             "spans": tracer.spans, "counts": tracer.counts},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
