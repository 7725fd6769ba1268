"""key=value configuration files for CLI runs.

Plain text, one ``key = value`` per line, "#" comments. Keys cover the
common run options plus every learner and clustering hyperparameter; CLI
flags always win over config values, which win over built-in defaults.
"""

from __future__ import annotations

CONFIG_SCHEMA = {
    # run options (same names as the CLI flags)
    "mode": str,
    "seed": int,
    "test_fraction": float,
    "cv": int,
    "k": int,
    "max_rows": int,
    # decision tree
    "tree_max_depth": int,
    "tree_min_leaf": int,
    "tree_cf": float,
    # k-nearest neighbours
    "knn_k": int,
    # logistic regression
    "logreg_lr": float,
    "logreg_epochs": int,
    "logreg_l2": float,
    "logreg_tol": float,
    # naive Bayes
    "nb_var_floor": float,
    # svm
    "svm_lambda": float,
    "svm_epochs": int,
    # k-means
    "kmeans_max_iter": int,
    "kmeans_tol": float,
    "kmeans_restarts": int,
}


def parse_config(lines, source="<config>"):
    values = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{source}:{line_no}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_SCHEMA:
            raise ValueError(
                f"{source}:{line_no}: unknown config key {key!r}; "
                f"known keys: {sorted(CONFIG_SCHEMA)}"
            )
        caster = CONFIG_SCHEMA[key]
        try:
            values[key] = caster(raw)
        except ValueError:
            raise ValueError(
                f"{source}:{line_no}: {key} expects {caster.__name__}, got {raw!r}"
            ) from None
    return values


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh, source=str(path))


def member_params_from_config(cfg):
    """Per-member constructor overrides drawn from a parsed config."""
    groups = {
        "c45": {
            "max_depth": cfg.get("tree_max_depth"),
            "min_leaf": cfg.get("tree_min_leaf"),
            "cf": cfg.get("tree_cf"),
        },
        "knn": {"k": cfg.get("knn_k")},
        "logreg": {
            "lr": cfg.get("logreg_lr"),
            "epochs": cfg.get("logreg_epochs"),
            "l2": cfg.get("logreg_l2"),
            "tol": cfg.get("logreg_tol"),
        },
        "nb": {"var_floor": cfg.get("nb_var_floor")},
        "svm": {"lam": cfg.get("svm_lambda"), "epochs": cfg.get("svm_epochs")},
    }
    out = {}
    for kind, params in groups.items():
        present = {k: v for k, v in params.items() if v is not None}
        if present:
            out[kind] = present
    return out


def kmeans_params_from_config(cfg):
    mapping = {
        "kmeans_max_iter": "max_iter",
        "kmeans_tol": "tol",
        "kmeans_restarts": "n_restarts",
    }
    return {arg: cfg[key] for key, arg in mapping.items() if key in cfg}
