"""key=value configuration files for CLI runs.

Text read like a corpus file (UTF-8, a leading byte-order mark dropped,
gzip ok), one ``key = value`` per line, "#" comments. Keys are the run
options, named like their CLI flags; CLI flags always win over config
values, which win over built-in defaults.
"""

from __future__ import annotations

from .corpus import open_corpus_text, resolve_mode

# run options (same names as the CLI flags)
CONFIG_SCHEMA = {
    "mode": str,
    "seed": int,
    "test_fraction": float,
    "cv": int,
    "k": int,
    "max_rows": int,
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
        if key == "mode":
            try:
                resolve_mode(raw)
            except ValueError as exc:
                raise ValueError(f"{source}:{line_no}: mode: {exc}") from None
    return values


def load_config(path):
    with open_corpus_text(path) as fh:
        return parse_config(fh, source=str(path))
