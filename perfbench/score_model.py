"""Load a saved ensemble and, optionally, score it on a labeled corpus.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/score_model.py MODEL [LABELED_CSV]

Loads MODEL through ``load_model(..., expected_kind="ensemble")``; with a
labeled corpus, prints the ensemble's accuracy on its deduplicated sld
records. Exits 1 with the reason on stderr if the model does not load.

run.py calls this in a child process so that its own process never holds a
model: a child's peak RSS, as ``wait4`` reports it, includes the RSS its
parent had when it was spawned.
"""

from __future__ import annotations

import sys


def main(argv):
    import numpy as np
    from domainsift import corpus, features
    from domainsift.model_io import ModelIOError, load_model

    try:
        model = load_model(argv[0], expected_kind="ensemble")
    except ModelIOError as exc:
        print(f"saved model does not load: {exc}", file=sys.stderr)
        return 1
    if len(argv) > 1:
        with corpus.open_corpus_text(argv[1]) as fh:
            records, _ = corpus.parse_labeled_csv(fh, mode="sld")
        records, _ = corpus.dedupe(records)
        X, y = features.extract_features(records)
        print(float(np.mean(model.predict(X) == y)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
