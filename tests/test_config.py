import pytest

from domainsift.config import HYPERPARAMETERS, hyperparameters, load_config, parse_config
from domainsift.model_io import KIND_REGISTRY


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
        with pytest.raises(ValueError, match=":3: knn_k expects int"):
            parse_config(["seed = 1", "", "knn_k = 2.5"])

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config(["just some text"])

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# run settings\nk = 4\nkmeans_tol = 1e-5\n")
        cfg = load_config(p)
        assert cfg == {"k": 4, "kmeans_tol": 1e-5}


class TestParamMapping:
    def test_member_params(self):
        cfg = parse_config([
            "tree_max_depth = 10",
            "knn_k = 3",
            "logreg_lr = 0.05",
            "nb_var_floor = 1e-8",
            "svm_lambda = 1e-3",
            "svm_epochs = 10",
        ])
        assert hyperparameters(cfg) == {
            "c45": {"max_depth": 10},
            "knn": {"k": 3},
            "logreg": {"lr": 0.05},
            "nb": {"var_floor": 1e-8},
            "svm": {"lam": 1e-3, "epochs": 10},
        }

    def test_empty_config_maps_empty(self):
        assert hyperparameters({}) == {}

    def test_kmeans_params(self):
        cfg = parse_config(["kmeans_max_iter = 50", "kmeans_restarts = 3"])
        assert hyperparameters(cfg) == {"kmeans": {"max_iter": 50, "n_restarts": 3}}

    def test_unrelated_keys_ignored(self):
        cfg = parse_config(["seed = 1", "mode = sld"])
        assert hyperparameters(cfg) == {}

    @pytest.mark.parametrize("key", sorted(HYPERPARAMETERS))
    def test_each_key_names_a_constructor_parameter(self, key):
        kind, param, caster = HYPERPARAMETERS[key]
        assert param in KIND_REGISTRY[kind]._param_names()
        default = KIND_REGISTRY[kind]().get_params()[param]
        assert type(default) is caster
