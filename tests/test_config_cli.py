import json
from pathlib import Path

import numpy as np
import pytest

from greedyrecon import cli
from greedyrecon.cli import main
from greedyrecon.config import ConfigError, ExperimentConfig, build_context, greedy_config
from greedyrecon.forward import FixedPointConfig
from greedyrecon.greedy import GreedyConfig
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
        {"tol2": float("nan")},
        {"x_max": float("inf")},
        {"nu": float("nan")},
        {"tol1": float("inf")},
        {"alpha_max": float("inf")},
        {"eps_a": [float("-inf"), -1.0]},
        {"eps_b": [1.0, float("nan")]},
        {"optim_coeff": {"grad_tol": float("nan")}},
        {"optim_control": {"grad_tol": float("inf")}},
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

    def test_defaults_are_those_of_the_owning_types(self):
        assert greedy_config(ExperimentConfig()) == GreedyConfig()
        assert build_context(ExperimentConfig()).fp == FixedPointConfig()
        doc = {"optim_coeff": {}, "optim_control": {}}
        assert ExperimentConfig.from_dict(doc) == ExperimentConfig()

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
            assert set(cfg.to_dict()[block]) == {"max_iters", "grad_tol"}

    def test_retired_sign_loads_at_one(self):
        # a config.json as written while the discrimination sign was a setting
        cfg = ExperimentConfig.from_dict(
            dict(ExperimentConfig().to_dict(), regularizer_sign=1))
        assert cfg == ExperimentConfig()
        assert "regularizer_sign" not in cfg.to_dict()

    def test_retired_sign_off_value_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, regularizer_sign=-1)
        assert main(["--config", str(cfg), "greedy"]) == 2
        assert capsys.readouterr().err.startswith("config error: regularizer_sign ")
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("key,value", [
        ("memory", 0), ("memory", 5), ("step_init", 2.0), ("restarts", 3),
        ("restarts", 1.0), ("seed", False), ("memory", 10.0)])
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
        # each splitting record carries the optimizer counts of its sweep
        assert len(progress) > 1
        assert all(rec["fitting"]["evals"] >= 1 for rec in progress[1:])
        assert main(["--config", str(cfg), "identify"]) == 0
        for name in ("identified.csv", "identify.json", "error_field.csv",
                     "taylor.csv"):
            assert (art / name).exists()
        doc = json.loads((art / "identify.json").read_text())
        assert doc["objective_value"] >= 0.0
        assert doc["evals"] >= max(doc["iterations"], 1)
        assert len(doc["collinearity_per_control"]) >= 1

    def test_gamma3_baseline_survives_a_failing_random_start(self, tmp_path):
        # identification's random start blows up at its first point, while
        # its zero start converges: the zero start's result is kept
        doc = {"n": 16, "degree": 2, "gamma1": 3.0, "gamma2": 3.0, "seed": 0,
               "output_dir": str(tmp_path / "art")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "baseline", "--count", "7"]) == 0
        assert (tmp_path / "art" / "identified.csv").exists()
        doc = json.loads((tmp_path / "art" / "identify.json").read_text())
        assert doc["objective_value"] <= 1e-12

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

    def test_new_design_drops_earlier_identification(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, degree=2,
                          optim_control={"max_iters": 30, "restarts": 1})
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "--seed", "1", "greedy"]) == 0
        assert main(["--config", str(cfg), "--seed", "1", "identify"]) == 0
        assert main(["--config", str(cfg), "--seed", "5", "greedy"]) == 0
        assert not (art / "identified.csv").exists()
        assert "identify" not in json.loads((art / "summary.json").read_text())
        capsys.readouterr()
        assert main(["--config", str(cfg), "taylor"]) == 2
        assert "run identify" in capsys.readouterr().err

    def test_stability_probe_keeps_design_config(self, tmp_path):
        cfg = tiny_config(tmp_path)
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "greedy"]) == 0
        design = (art / "config.json").read_bytes()
        assert main(["--config", str(cfg), "--seed", "4", "stability-probe",
                     "--k", "2", "--samples", "4"]) == 0
        assert (art / "config.json").read_bytes() == design
        doc = json.loads((art / "stability.json").read_text())
        assert doc["config"]["seed"] == 4

    def test_baseline_replaces_greedy_design(self, tmp_path):
        cfg = tiny_config(tmp_path)
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "greedy"]) == 0
        assert main(["--config", str(cfg), "baseline", "--count", "3"]) == 0
        assert not (art / "greedy.json").exists()
        summary = json.loads((art / "summary.json").read_text())
        assert "greedy" not in summary and summary["baseline"]["count"] == 3

    def test_failed_design_run_keeps_earlier_design(self, tmp_path, monkeypatch):
        import greedyrecon.cli as cli_mod
        from greedyrecon.exceptions import NumericalError

        cfg = tiny_config(tmp_path)
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "greedy"]) == 0
        before = {p.name: p.read_bytes() for p in art.iterdir()}

        def broken(ctx, gcfg):
            raise NumericalError("injected")

        monkeypatch.setattr(cli_mod, "run_greedy", broken)
        assert main(["--config", str(cfg), "--seed", "9", "greedy"]) == 3
        assert {p.name: p.read_bytes() for p in art.iterdir()} == before

    def test_landscape_default_hi_is_design_alpha_max(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2, alpha_max=0.5,
                          optim_control={"max_iters": 30, "restarts": 1})
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "greedy"]) == 0
        # the command line's own config has alpha_max 1
        assert main(["--out", str(art), "landscape", "--points", "3"]) == 0
        header = (art / "landscape.csv").read_text().split("\n")[0].split(",")
        assert [float(c) for c in header[1:]] == [0.0, 0.25, 0.5]

    def test_design_readers_ignore_command_line_config(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, degree=2)
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "baseline", "--count", "3"]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1}))
        for command in (["identify"], ["landscape", "--points", "3"], ["taylor"]):
            assert main(["--config", str(bad), "--out", str(art)] + command) == 0
        # without --out the command line's config names the directory
        capsys.readouterr()
        assert main(["--config", str(bad), "taylor"]) == 2
        assert "at least 2 cells" in capsys.readouterr().err

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
        from greedyrecon.greedy import GreedyRun

        def broken(ctx, gcfg):
            raise GreedyFailure("injected", partial=GreedyRun(ctx.basis))

        monkeypatch.setattr(cli_mod, "run_greedy", broken)
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "greedy"]) == 4
        doc = json.loads((tmp_path / "art" / "greedy.json").read_text())
        assert doc["failed"] is True
        assert doc["message"] == "injected"
        assert doc["stopped_by"] == "failed"

    def test_greedy_record_lists_candidates_in_numeric_order(self, tmp_path, monkeypatch):
        import greedyrecon.cli as cli_mod
        from greedyrecon.greedy import GreedyRun

        candidates = range(1, 13)
        record = {"stage": "initialization", "k": 0, "winner": 1, "f_max": 1.0,
                  "scores": {c: 1.0 / c for c in candidates},
                  "errors": {c: "injected" for c in candidates if c % 2 == 0},
                  "stats": {"rounds": 1, "evals": 12, "candidates": {
                      c: {"iterations": 0, "evals": 1, "converged": True}
                      for c in candidates}}}

        def designed(ctx, gcfg):
            return GreedyRun(ctx.basis, [ctx.grid.zero_field()], [record], "exhausted")

        monkeypatch.setattr(cli_mod, "run_greedy", designed)
        assert main(["--config", str(tiny_config(tmp_path)), "greedy"]) == 0
        (rec,) = json.loads((tmp_path / "art" / "greedy.json").read_text())["progress"]
        assert list(rec["scores"]) == [str(c) for c in candidates]
        assert list(rec["errors"]) == [str(c) for c in candidates if c % 2 == 0]
        assert list(rec["stats"]["candidates"]) == list(rec["scores"])

    def test_failed_greedy_writes_completed_steps(self, tmp_path, monkeypatch):
        import greedyrecon.greedy as greedy_mod
        from greedyrecon.exceptions import NumericalError

        cfg = tiny_config(tmp_path)
        art = tmp_path / "art"
        # a complete earlier design leaves basis.json and summary.json behind
        assert main(["--config", str(cfg), "greedy"]) == 0
        assert json.loads((art / "summary.json").read_text())["greedy"]["k_final"] == 3
        original = greedy_mod.discriminate

        def broken(objectives, vecs):
            # candidate 2 fails at the initialization, every candidate at
            # the k=1 splitting, whose surrogates have one coefficient
            for o in objectives:
                if o.beta.size == 1 or (o.beta.size == 0 and o.candidate_pos == 2):
                    raise NumericalError(f"injected k={o.beta.size} c={o.candidate_pos}")
            return original(objectives, vecs)

        monkeypatch.setattr(greedy_mod, "discriminate", broken)
        assert main(["--config", str(cfg), "greedy"]) == 4
        doc = json.loads((art / "greedy.json").read_text())
        assert doc["failed"] is True
        assert "splitting subproblem at k=1 failed" in doc["message"]
        assert doc["k_final"] == 1 and doc["stopped_by"] == "failed"
        (record,) = doc["progress"]
        assert record["stage"] == "initialization" and record["k"] == 0
        assert record["errors"] == {"2": "injected k=0 c=2"}
        assert doc["f_max_history"] == [record["f_max"]]
        basis = json.loads((art / "basis.json").read_text())
        assert basis["winners"] == [record["winner"]]
        assert basis["swaps"] == [[0, record["winner"]]]
        assert basis["order"][0] == record["winner"]
        summary = json.loads((art / "summary.json").read_text())["greedy"]
        assert summary["k_final"] == 1 and summary["stopped_by"] == "failed"
        lines = (art / "controls.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 9 * 9

    def test_identify_without_controls_exit_code(self, tmp_path, monkeypatch, capsys):
        import greedyrecon.greedy as greedy_mod
        from greedyrecon.exceptions import NumericalError

        def broken(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(greedy_mod, "discriminate", broken)
        cfg = tiny_config(tmp_path)
        assert main(["--config", str(cfg), "greedy"]) == 4
        doc = json.loads((tmp_path / "art" / "greedy.json").read_text())
        assert doc["k_final"] == 0 and doc["progress"] == []
        capsys.readouterr()
        assert main(["--config", str(cfg), "identify"]) == 2
        assert "holds no control" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 16])
    def test_controls_off_the_config_grid_exit_code(self, tmp_path, capsys, n):
        cfg = tiny_config(tmp_path)
        art = tmp_path / "art"
        assert main(["--config", str(cfg), "greedy"]) == 0
        doc = json.loads((art / "config.json").read_text())
        (art / "config.json").write_text(json.dumps(dict(doc, n=n)))
        capsys.readouterr()
        assert main(["--out", str(art), "identify"]) == 2
        assert "controls.csv" in capsys.readouterr().err

    def test_all_needs_quadratic_pair_before_any_work(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, degree=1)
        assert main(["--config", str(cfg), "all"]) == 2
        assert "degree >= 2" in capsys.readouterr().err
        assert not (tmp_path / "art" / "controls.csv").exists()

    @pytest.mark.parametrize("failing, code, ran", [
        ("greedy", 4, ["greedy"]),
        ("identify", 3, ["greedy", "identify"]),
    ])
    def test_all_stops_at_the_first_failing_step(self, tmp_path, monkeypatch,
                                                 failing, code, ran):
        steps = []

        def step(name):
            def run(*args, **kwargs):
                steps.append(name)
                return code if name == failing else 0
            return run

        for name in ("greedy", "identify", "landscape"):
            monkeypatch.setattr(cli, f"cmd_{name}", step(name))
        cfg = tiny_config(tmp_path, degree=2)
        assert main(["--config", str(cfg), "all"]) == code
        assert steps == ran

    def test_malformed_json_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 8,')
        assert main(["--config", str(path), "greedy"]) == 2
        assert f"malformed config file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ([200, 1e-8], "optim_coeff must be an object"),
        ({"max_iters": 0}, "optim_coeff: max_iters and grad_tol must be positive"),
    ], ids=["list", "zero-iterations"])
    def test_bad_optim_coeff_exit_code(self, tmp_path, capsys, value, message):
        cfg = tiny_config(tmp_path, optim_coeff=value)
        assert main(["--config", str(cfg), "greedy"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, tol2=float("nan"))
        assert "NaN" in cfg.read_text()
        assert main(["--config", str(cfg), "greedy"]) == 2
        assert "tol2 must be finite" in capsys.readouterr().err

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

    def test_control_lines_equal_every_field_at_17_digits(self, tmp_path):
        rng = np.random.default_rng(11)
        controls = [np.zeros((2, 9, 9)) for _ in range(12)]
        for c in controls:
            c[:, 1:-1, 1:-1] = rng.uniform(-1.0, 1.0, (2, 7, 7))
        controls[3][0, 2, 2], controls[4][1, 5, 1] = -0.0, 1e-300
        controls[11][1, 7, 7] = 3.0
        header = ["control", "component", "i", "j", "value"]
        cli.write_csv(tmp_path / "fast.csv", header, cli._control_lines(controls),
                      formatted=True)
        rows = [(m, comp, i, j, float(c[comp, i, j])) for m, c in enumerate(controls)
                for comp, i, j in np.ndindex(c.shape)]
        cli.write_csv(tmp_path / "plain.csv", header, rows)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "plain.csv").read_bytes()
        assert b"\n3,0,2,2,-0\n" in fast and b"\n11,1,7,7,3\n" in fast

    def test_control_lines_cache_tells_signed_zeros_apart(self):
        # -0.0 == 0.0 as a dict key, but they print as -0 and 0
        controls = [np.zeros((2, 6, 6)) for _ in range(3)]
        controls[0][0, 1, 1:5] = [-0.0, 0.0, -0.0, 5e-324]
        controls[0][1, 2, 1:5] = [1e308, -1e308, 0.1, -0.0]
        controls[1][:, 1:-1, 1:-1] = -0.0
        controls[1][1, 3, 3] = 5e-324
        controls[2][0, 4, 1:5] = [0.1, 1e308, -0.0, 0.1]
        lines = ["%d,%d,%d,%d,%.17g\n" % ((m,) + node + (c[node],))
                 for m, c in enumerate(controls) for node in np.ndindex(c.shape)]
        fast = "".join(cli._control_lines(controls))
        assert fast == "".join(lines)
        assert "\n0,0,1,1,-0\n0,0,1,2,0\n0,0,1,3,-0\n0,0,1,4,4.9406564584124654e-324\n" in fast
        assert "\n2,0,4,3,-0\n" in fast and "\n0,1,2,2,-1e+308\n" in fast

    def test_seed_override_changes_baseline(self, tmp_path):
        art1, art2 = tmp_path / "a", tmp_path / "b"
        cfg = tiny_config(tmp_path)
        main(["--config", str(cfg), "--out", str(art1), "--seed", "1",
              "baseline", "--count", "2"])
        main(["--config", str(cfg), "--out", str(art2), "--seed", "2",
              "baseline", "--count", "2"])
        assert (art1 / "controls.csv").read_bytes() != (art2 / "controls.csv").read_bytes()


@pytest.fixture
def design(tmp_path):
    """A P=2 baseline design at n=8, identified once."""
    cfg = tiny_config(tmp_path, degree=2)
    assert main(["--config", str(cfg), "baseline", "--count", "3"]) == 0
    return tmp_path / "art"


def relabel(rows, old, new):
    """The controls.csv rows of control ``old`` alone, renumbered ``new``."""
    return [f"{new}," + r.split(",", 1)[1] for r in rows if r.split(",")[0] == old]


class TestIdentifyReport:
    def test_fewer_controls_than_coefficients_pin_the_tail(self, design):
        # 3 controls fit the first 3 of the 6 positions; the rest stay 0
        doc = json.loads((design / "identify.json").read_text())
        summary = json.loads((design / "summary.json").read_text())["identify"]
        for record in (doc, summary):
            assert record["free_positions"] == [0, 1, 2]
            assert record["pinned_positions"] == [3, 4, 5]
        rows = (design / "identified.csv").read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[-1]) for row in rows[3:]] == [0.0] * 3

    def test_as_many_controls_as_coefficients_pin_none(self, tmp_path):
        cfg = tiny_config(tmp_path, degree=2)
        assert main(["--config", str(cfg), "baseline", "--count", "6"]) == 0
        doc = json.loads((tmp_path / "art" / "identify.json").read_text())
        assert doc["free_positions"] == list(range(6))
        assert doc["pinned_positions"] == []


class TestLandscapePair:
    def test_explicit_pair(self, design):
        assert main(["--out", str(design), "landscape", "--pair", "4,1",
                     "--points", "2"]) == 0
        summary = json.loads((design / "summary.json").read_text())
        assert summary["landscape"]["index_pair"] == [4, 1]
        assert len((design / "landscape.csv").read_text().strip().split("\n")) == 3


class TestMalformedInput:
    @staticmethod
    def identify_error(art, capsys):
        capsys.readouterr()
        assert main(["--out", str(art), "identify"]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("order", [[0, 0, 1, 2, 3, 4], [0, 1, 2],
                                       [0, 1, 2, 3, 4, 6], "012345", None])
    def test_basis_order_not_a_permutation_exit_code(self, design, capsys, order):
        path = design / "basis.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), order=order)))
        assert str(path) in self.identify_error(design, capsys)

    def test_basis_degree_not_the_configs_exit_code(self, design, capsys):
        path = design / "basis.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), degree=3)))
        err = self.identify_error(design, capsys)
        assert str(path) in err and "basis degree disagrees with config" in err

    def test_basis_without_degree_exit_code(self, design, capsys):
        path = design / "basis.json"
        doc = json.loads(path.read_text())
        del doc["degree"]
        path.write_text(json.dumps(doc))
        assert str(path) in self.identify_error(design, capsys)

    @pytest.mark.parametrize("row", ["1,0,3", "0,0,3,3,abc", "0,x,3,3,0.5", "0,0,3,3,nan",
                                     "0,0,3,3,-inf"])
    def test_malformed_controls_row_exit_code(self, design, capsys, row):
        path = design / "controls.csv"
        path.write_text(path.read_text() + row + "\n")
        err = self.identify_error(design, capsys)
        assert str(path) in err and row in err

    @pytest.mark.parametrize("edit", [
        lambda rows: [r.replace("0,0,1,2,", "0,0,1,1,", 1) if r.startswith("0,0,1,2,")
                      else r for r in rows],
        lambda rows: [r for r in rows if not r.startswith("1,")],
        lambda rows: relabel(rows, "0", "-1"),
        lambda rows: relabel(rows, "0", "3"),
    ], ids=["node-twice-node-missing", "indices-0-2", "index-minus-1", "index-3"])
    def test_controls_not_as_written_exit_code(self, design, capsys, edit):
        path = design / "controls.csv"
        header, *rows = path.read_text().strip().split("\n")
        edited = edit(rows)
        assert edited != rows and len(edited) % (2 * 9 ** 2) == 0
        path.write_text("\n".join([header] + edited) + "\n")
        assert str(path) in self.identify_error(design, capsys)

    def test_nonzero_boundary_value_exit_code(self, design, capsys):
        # write_design writes every boundary node as 0 and no solve reads one
        path = design / "controls.csv"
        text = path.read_text()
        assert "\n0,0,0,3,0\n" in text
        path.write_text(text.replace("\n0,0,0,3,0\n", "\n0,0,0,3,5.0\n"))
        err = self.identify_error(design, capsys)
        assert str(path) in err and "0,0,0,3,5.0" in err

    @pytest.mark.parametrize("command", [["taylor"], ["landscape", "--points", "2"]],
                             ids=["taylor", "landscape"])
    @pytest.mark.parametrize("edit", [
        lambda rows: rows + ["6,0,0,abc"],
        lambda rows: rows[:-1],
        lambda rows: rows[:1] + rows[2:] + rows[1:2],
        lambda rows: rows[:-1] + ["5,2,2,0.5"],
    ], ids=["non-numeric", "missing-row", "reordered", "foreign-monomial"])
    def test_malformed_identified_exit_code(self, design, capsys, command, edit):
        path = design / "identified.csv"
        path.write_text("\n".join(edit(path.read_text().strip().split("\n"))) + "\n")
        capsys.readouterr()
        assert main(["--out", str(design)] + command) == 2
        assert str(path) in capsys.readouterr().err

    def test_identify_record_without_truth_exit_code(self, design, capsys):
        path = design / "identify.json"
        path.write_text(json.dumps({"objective_value": 0.0}))
        capsys.readouterr()
        assert main(["--out", str(design), "taylor"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, truth", [(["taylor"], 5),
                                                (["landscape", "--points", "2"], "bogus")],
                             ids=["taylor-5", "landscape-bogus"])
    def test_identify_record_truth_not_a_closed_form_exit_code(self, design, capsys,
                                                               command, truth):
        path = design / "identify.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), truth=truth)))
        capsys.readouterr()
        assert main(["--out", str(design)] + command) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [(["identify"], "[1, 2]"),
                                               (["landscape", "--points", "2"], "{bad")],
                             ids=["identify-list", "landscape-malformed"])
    def test_summary_not_a_json_object_exit_code(self, design, capsys, command, text):
        path = design / "summary.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["--out", str(design)] + command) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["identify"],
        ["landscape", "--points", "2"],
        ["--config", "cfg.json", "stability-probe", "--k", "1", "--samples", "2"],
    ], ids=["identify", "landscape", "stability-probe"])
    def test_bad_summary_changes_no_output(self, design, capsys, command):
        # a command that fails on summary.json has written none of its outputs
        (design / "identified.csv").unlink()
        (design / "summary.json").write_text("[1, 2]")
        before = {p.name: p.read_bytes() for p in design.iterdir()}
        command = [str(design.parent / a) if a == "cfg.json" else a for a in command]
        capsys.readouterr()
        assert main(["--out", str(design)] + command) == 2
        assert str(design / "summary.json") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in design.iterdir()} == before

    @pytest.mark.parametrize("bounds", [["--lo", "nan"], ["--hi", "inf"],
                                        ["--lo=-inf", "--hi", "0.5"]])
    def test_landscape_bounds_must_be_finite(self, design, capsys, bounds):
        capsys.readouterr()
        assert main(["--out", str(design), "landscape", "--points", "2"] + bounds) == 2
        assert "finite" in capsys.readouterr().err
        assert not (design / "landscape.csv").exists()

    def test_config_top_level_list_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"n": 8}]))
        assert main(["--config", str(path), "greedy"]) == 2
        assert str(path) in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe{\x00"


def not_utf8(path: Path) -> Path:
    path.write_bytes(NOT_UTF8)
    return path


def a_directory(path: Path) -> Path:
    path.unlink(missing_ok=True)
    path.mkdir()
    return path


def a_file(path: Path) -> Path:
    path.write_text("not a directory\n")
    return path


# (command line, path the message names) built from the design directory
UNUSABLE_PATHS = {
    "config-not-utf8": lambda art: (["--config", str(not_utf8(art.parent / "bad.json")),
                                     "greedy"], art.parent / "bad.json"),
    "config-directory": lambda art: (["--config", str(a_directory(art.parent / "cfgdir")),
                                      "greedy"], art.parent / "cfgdir"),
    "controls-not-utf8": lambda art: (["--out", str(art), "identify"],
                                      not_utf8(art / "controls.csv")),
    "identified-not-utf8": lambda art: (["--out", str(art), "taylor"],
                                        not_utf8(art / "identified.csv")),
    "identified-directory": lambda art: (["--out", str(art), "taylor"],
                                         a_directory(art / "identified.csv")),
    "baseline-out-file": lambda art: (["--config", str(art.parent / "cfg.json"),
                                       "--out", str(a_file(art.parent / "file")),
                                       "baseline", "--count", "2"], art.parent / "file"),
    "greedy-out-file": lambda art: (["--config", str(art.parent / "cfg.json"),
                                     "--out", str(a_file(art.parent / "file")), "greedy"],
                                    art.parent / "file"),
    "greedy-out-under-file": lambda art: (["--config", str(art.parent / "cfg.json"),
                                           "--out", str(a_file(art.parent / "file") / "sub"),
                                           "greedy"], art.parent / "file"),
    "stability-out-file": lambda art: (["--config", str(art.parent / "cfg.json"),
                                        "--out", str(a_file(art.parent / "file")),
                                        "stability-probe", "--k", "1", "--samples", "2"],
                                       art.parent / "file"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_unusable_path_exits_2_naming_it(design, capsys, monkeypatch, case):
    # an input that cannot be read or decoded, or an output directory that
    # cannot be created, is a config error reported before any solve
    argv, named = UNUSABLE_PATHS[case](design)
    greedy_runs = []
    monkeypatch.setattr(cli, "run_greedy", lambda *a: greedy_runs.append(a))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(named) in err
    assert "Traceback" not in err
    assert greedy_runs == []
