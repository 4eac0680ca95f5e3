import json
from pathlib import Path

import numpy as np
import pytest

from greedyrecon.cli import main
from greedyrecon.config import ConfigError, ExperimentConfig
from greedyrecon.optimize import OptimConfig


def tiny_config(tmp_path, **overrides) -> Path:
    doc = {
        "n": 8,
        "degree": 1,
        "seed": 3,
        "output_dir": str(tmp_path / "art"),
        "optim_control": {"max_iters": 40, "restarts": 1},
        "optim_coeff": {"max_iters": 200, "restarts": 1},
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestExperimentConfig:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(n=12, degree=3, truth="sinusoidal", seed=42,
                               optim_coeff=OptimConfig(grad_tol=1e-9))
        path = tmp_path / "cfg.json"
        cfg.save(path)
        again = ExperimentConfig.load(path)
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"n": 8, "bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in optim_coeff"):
            ExperimentConfig.from_dict({"optim_coeff": {"nope": 2}})

    @pytest.mark.parametrize("bad", [
        {"n": 1},
        {"x_max": 0.0},
        {"degree": -1},
        {"truth": "cubic"},
        {"gamma1": 0.1, "gamma2": 0.2},
        {"eps_a": [1.0, 0.0], "eps_b": [0.0, 1.0]},
        {"lambda_a": 1.0},
        {"regularizer_sign": 0},
        {"error_lattice_m": 1},
        {"threads": 0},
        {"n": "16"},
        {"optim_coeff": {"max_iters": "5"}},
        {"eps_a": 3},
        {"alpha_max": -1.0},
        {"nu": -1e-6},
        {"tol1": 0.0},
        {"seed": -1},
        {"eps_a": [0.0, 0.0, 0.0]},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_defaults_follow_reference_experiment(self):
        cfg = ExperimentConfig()
        assert cfg.n == 64 and cfg.x_max == 1.0
        assert cfg.eps_a == (-1.0, -1.0) and cfg.eps_b == (1.0, 1.0)
        assert cfg.gamma1 == cfg.gamma2 == 0.2
        assert cfg.lambda_a == 0.0
        assert cfg.tol1 == pytest.approx(2.22e-16, rel=1e-2)

    def test_retired_optimizer_keys_load_at_old_defaults(self, tmp_path):
        # a config.json as written while OptimConfig had nine fields
        doc = ExperimentConfig().to_dict()
        retired = {"armijo_c": 0.0001, "max_backtracks": 50, "memory": 10,
                   "seed": 0, "shrink": 0.5, "step_init": 1.0}
        doc["optim_coeff"] = dict(retired, grad_tol=1e-08, max_iters=500, restarts=1)
        doc["optim_control"] = dict(retired, grad_tol=1e-06, max_iters=80, restarts=1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        cfg = ExperimentConfig.load(path)
        assert cfg == ExperimentConfig()
        for block in ("optim_coeff", "optim_control"):
            assert set(cfg.to_dict()[block]) == {"max_iters", "grad_tol", "restarts"}

    @pytest.mark.parametrize("key,value", [
        ("memory", 0), ("memory", 5), ("step_init", 2.0)])
    def test_retired_optimizer_key_off_default_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"optim_control.{key}"):
            ExperimentConfig.from_dict({"optim_control": {key: value}})

    def test_wrong_type_error_names_key(self):
        for doc, key in [({"n": "16"}, "n"),
                         ({"optim_coeff": {"max_iters": "5"}}, "optim_coeff.max_iters"),
                         ({"eps_b": [1.0, "1"]}, "eps_b"),
                         ({"regularizer_sign": True}, "regularizer_sign")]:
            with pytest.raises(ConfigError, match=f"^{key} must be of type"):
                ExperimentConfig.from_dict(doc)

    def test_retired_threads_key_loads_at_any_positive_integer(self, tmp_path):
        # a config.json as written while the candidate thread pool existed
        doc = dict(ExperimentConfig(n=16).to_dict(), threads=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        cfg = ExperimentConfig.load(path)
        assert cfg == ExperimentConfig(n=16)
        assert "threads" not in cfg.to_dict()
        for bad in (0, "2"):
            with pytest.raises(ConfigError, match="^threads"):
                ExperimentConfig.from_dict(dict(doc, threads=bad))

    def test_version_checked(self):
        with pytest.raises(ConfigError, match="config_version"):
            ExperimentConfig.from_dict({"config_version": 99})


class TestCliLifecycle:
    def test_greedy_then_identify_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "greedy"]) == 0
        art = tmp_path / "art"
        for name in ("config.json", "basis.json", "controls.csv", "greedy.json",
                     "summary.json"):
            assert (art / name).exists()
        progress = json.loads((art / "greedy.json").read_text())["progress"]
        # every stage record names its failed candidates, none here
        assert progress and all(rec["errors"] == {} for rec in progress)
        assert main(["--config", str(cfg), "identify"]) == 0
        for name in ("identified.csv", "identify.json", "error_field.csv",
                     "taylor.csv"):
            assert (art / name).exists()
        doc = json.loads((art / "identify.json").read_text())
        assert doc["objective_value"] >= 0.0
        assert len(doc["collinearity_per_control"]) >= 1

    def test_identify_truth_override(self, tmp_path):
        cfg = tiny_config(tmp_path)
        main(["--config", str(cfg), "greedy"])
        assert main(["--config", str(cfg), "identify", "--truth", "exponential"]) == 0
        doc = json.loads((tmp_path / "art" / "identify.json").read_text())
        assert doc["truth"] == "exponential"

    def test_landscape_and_taylor(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2,
                          optim_control={"max_iters": 30, "restarts": 1})
        main(["--config", str(cfg), "greedy"])
        main(["--config", str(cfg), "identify"])
        assert main(["--config", str(cfg), "landscape", "--points", "3"]) == 0
        matrix = (tmp_path / "art" / "landscape.csv").read_text().strip().split("\n")
        assert len(matrix) == 4  # header plus 3 rows
        assert matrix[0].startswith("c1\\c2,")
        assert main(["--config", str(cfg), "taylor"]) == 0

    def test_landscape_scans_identified_truth(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2,
                          optim_control={"max_iters": 30, "restarts": 1})
        main(["--config", str(cfg), "greedy"])
        assert main(["--config", str(cfg), "identify", "--truth", "sinusoidal"]) == 0
        art = tmp_path / "art"
        scan = ["--config", str(cfg), "landscape", "--points", "3"]
        assert main(scan + ["--truth", "sinusoidal"]) == 0
        explicit = (art / "landscape.csv").read_bytes()
        assert main(scan) == 0
        assert (art / "landscape.csv").read_bytes() == explicit

    def test_taylor_uses_identified_truth(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2,
                          optim_control={"max_iters": 30, "restarts": 1})
        main(["--config", str(cfg), "greedy"])
        assert main(["--config", str(cfg), "identify", "--truth", "sinusoidal"]) == 0
        art = tmp_path / "art"
        written = (art / "taylor.csv").read_bytes()
        assert main(["--config", str(cfg), "taylor"]) == 0
        assert (art / "taylor.csv").read_bytes() == written

    def test_baseline(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "baseline", "--count", "3"]) == 0
        art = tmp_path / "art"
        lines = (art / "controls.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 2 * 9 * 9
        summary = json.loads((art / "summary.json").read_text())
        assert summary["baseline"]["count"] == 3
        assert "max_collinearity" in summary["identify"]

    def test_stability_probe(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "stability-probe", "--k", "2",
                     "--samples", "8"]) == 0
        doc = json.loads((tmp_path / "art" / "stability.json").read_text())
        assert doc["k"] == 2
        assert np.isfinite(doc["h1_per_dalpha"]["max"])

    def test_all_chain(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2,
                          optim_control={"max_iters": 25, "restarts": 1})
        assert main(["--config", str(cfg), "all"]) == 0
        art = tmp_path / "art"
        assert (art / "landscape.csv").exists()
        assert (art / "taylor.csv").exists()


class TestCliErrors:
    def test_degree_zero_single_control_artifact(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=0)
        assert main(["--config", str(cfg), "greedy"]) == 0
        doc = json.loads((tmp_path / "art" / "greedy.json").read_text())
        assert doc["k_final"] == 1

    def test_partial_result_exit_code(self, tmp_path, monkeypatch):
        import greedyrecon.cli as cli_mod
        from greedyrecon.exceptions import GreedyFailure

        def broken(ctx, gcfg):
            raise GreedyFailure("injected", partial=None)

        monkeypatch.setattr(cli_mod, "run_greedy", broken)
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "greedy"]) == 4

    def test_config_error_exit_code(self, tmp_path):
        cfg = tiny_config(tmp_path, n=1)
        assert main(["--config", str(cfg), "greedy"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "greedy"]) == 2

    def test_wrongly_typed_value_exit_code(self, tmp_path):
        cfg = tiny_config(tmp_path, n="16")
        assert main(["--config", str(cfg), "greedy"]) == 2

    @pytest.mark.parametrize("args", [
        ["--k", "99", "--samples", "3"],
        ["--k", "2", "--samples", "1"],
        ["--k", "0"],
    ])
    def test_stability_probe_bad_arguments_exit_code(self, tmp_path, capsys, args):
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "stability-probe"] + args) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "art").exists()

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tiny_config(tmp_path, whatever=1)
        assert main(["--config", str(cfg), "greedy"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # exponential truth with a huge admissible box blows up data generation
        cfg = tiny_config(tmp_path, truth="exponential",
                          eps_a=[-80.0, -80.0], eps_b=[80.0, 80.0])
        assert main(["--config", str(cfg), "greedy"]) == 0
        assert main(["--config", str(cfg), "identify"]) == 3

    def test_landscape_pair_validation(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        main(["--config", str(cfg), "greedy"])
        main(["--config", str(cfg), "identify"])
        capsys.readouterr()
        for args in (["--pair", "0,9"], ["--pair", "zzz"],
                     ["--pair", "0,1", "--points", "-1"],
                     ["--pair", "0,1", "--points", "0"]):
            assert main(["--config", str(cfg), "landscape"] + args) == 2
            assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "art" / "landscape.csv").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        outputs = {}
        for tag in ("one", "two"):
            art = tmp_path / tag
            cfg = tiny_config(tmp_path, output_dir=str(art))
            assert main(["--config", str(cfg), "greedy"]) == 0
            assert main(["--config", str(cfg), "identify"]) == 0
            outputs[tag] = {
                name: (art / name).read_bytes()
                for name in ("controls.csv", "identified.csv",
                             "error_field.csv", "taylor.csv")
            }
        assert outputs["one"] == outputs["two"]

    def test_seed_override_changes_baseline(self, tmp_path):
        art1, art2 = tmp_path / "a", tmp_path / "b"
        cfg = tiny_config(tmp_path)
        main(["--config", str(cfg), "--out", str(art1), "--seed", "1",
              "baseline", "--count", "2"])
        main(["--config", str(cfg), "--out", str(art2), "--seed", "2",
              "baseline", "--count", "2"])
        assert (art1 / "controls.csv").read_bytes() != (art2 / "controls.csv").read_bytes()
