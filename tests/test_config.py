import argparse

import pytest

from domainsift.cli import build_parser
from domainsift.config import CONFIG_SCHEMA, load_config, parse_config

# flags that a config file cannot set: paths, and per-command sizes and switches
NOT_RUN_OPTIONS = {"help", "in_path", "out", "config", "model", "model_out", "badlist",
                   "sample", "n_legit", "n_dga", "census_n", "dga_fraction", "gzip"}


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config(["seed = 7", "mode = full", "test_fraction = 0.25"])
        assert cfg == {"seed": 7, "mode": "full", "test_fraction": 0.25}

    def test_comments_and_blanks(self):
        cfg = parse_config(["# a comment", "", "seed = 3  # trailing", "  "])
        assert cfg == {"seed": 3}

    def test_unknown_key_lists_known(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config(["bogus = 1"])

    def test_cast_error_names_line(self):
        with pytest.raises(ValueError, match=":2"):
            parse_config(["seed = 1", "seed = notanint"])
        with pytest.raises(ValueError, match=":3: k expects int"):
            parse_config(["seed = 1", "", "k = 2.5"])

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config(["just some text"])

    @pytest.mark.parametrize("mode", ["full", "sld"])
    def test_mode_name_stored_as_written(self, mode):
        assert parse_config([f"mode = {mode}"]) == {"mode": mode}

    @pytest.mark.parametrize("mode", ["bogus", "FULL", "full\x00", "", "full_name",
                                      "second_level_label"])
    def test_unknown_mode_names_line(self, mode):
        with pytest.raises(ValueError, match=r"^run\.cfg:2: mode: unknown normalization mode"):
            parse_config(["seed = 1", f"mode = {mode}"], source="run.cfg")

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# run settings\nk = 4\ntest_fraction = 0.2\n")
        cfg = load_config(p)
        assert cfg == {"k": 4, "test_fraction": 0.2}


def test_schema_keys_are_the_run_option_flags():
    """Every config key is the dest of a CLI flag of the same type, and every
    flag but the ones listed in NOT_RUN_OPTIONS has a config key."""
    flags = {}
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subparsers.choices.values():
        for action in sub._actions:
            flags.setdefault(action.dest, set()).add(action.type or str)
    assert set(flags) - NOT_RUN_OPTIONS == set(CONFIG_SCHEMA)
    for key, caster in CONFIG_SCHEMA.items():
        assert flags[key] == {caster}, key
