"""key=value configuration files for CLI runs.

Plain text, one ``key = value`` per line, "#" comments. Keys cover the
common run options plus every learner and clustering hyperparameter; CLI
flags always win over config values, which win over built-in defaults.
"""

from __future__ import annotations

# run options (same names as the CLI flags)
CONFIG_SCHEMA = {
    "mode": str,
    "seed": int,
    "test_fraction": float,
    "cv": int,
    "k": int,
    "max_rows": int,
}

# config key -> (model kind, constructor parameter, type)
HYPERPARAMETERS = {
    "tree_max_depth": ("c45", "max_depth", int),
    "tree_min_leaf": ("c45", "min_leaf", int),
    "tree_cf": ("c45", "cf", float),
    "knn_k": ("knn", "k", int),
    "logreg_lr": ("logreg", "lr", float),
    "logreg_epochs": ("logreg", "epochs", int),
    "logreg_l2": ("logreg", "l2", float),
    "logreg_tol": ("logreg", "tol", float),
    "nb_var_floor": ("nb", "var_floor", float),
    "svm_lambda": ("svm", "lam", float),
    "svm_epochs": ("svm", "epochs", int),
    "kmeans_max_iter": ("kmeans", "max_iter", int),
    "kmeans_tol": ("kmeans", "tol", float),
    "kmeans_restarts": ("kmeans", "n_restarts", int),
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
        if key in CONFIG_SCHEMA:
            caster = CONFIG_SCHEMA[key]
        elif key in HYPERPARAMETERS:
            caster = HYPERPARAMETERS[key][2]
        else:
            raise ValueError(
                f"{source}:{line_no}: unknown config key {key!r}; "
                f"known keys: {sorted([*CONFIG_SCHEMA, *HYPERPARAMETERS])}"
            )
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


def hyperparameters(cfg):
    """Constructor overrides per model kind drawn from a parsed config,
    e.g. ``{"knn": {"k": 3}, "kmeans": {"n_restarts": 3}}``."""
    overrides = {}
    for key, value in cfg.items():
        if key in HYPERPARAMETERS:
            kind, param, _ = HYPERPARAMETERS[key]
            overrides.setdefault(kind, {})[param] = value
    return overrides
