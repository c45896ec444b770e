"""CLI: config parsing, subcommand dispatch, exit codes, determinism."""

import dataclasses
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conewidth import cli, experiment, geometry, solver
from conewidth.cli import load_config, main, serialize_config
from conewidth.experiment import ConfigError, ExperimentConfig, sweep_truth
from conewidth.geometry import FeasibleSet

ROOT = Path(__file__).resolve().parents[1]

MATCHED_CFG = """\
# minimal matched sweep
family = gaussian
ensemble = gaussian
p = 30
s = 3
theta_magnitude = 0.5
noise_scale = 0.5
n_grid = 20,40,80
trials = 4
mc_samples = 400
master_seed = 7
rsc_directions = 120
"""

MISMATCHED_CFG = """\
family = gaussian
p = 20
s = 2
slack = 0.8
n_grid = 30,60
trials = 3
mc_samples = 300
master_seed = 8
rsc_directions = 120
mu_mode = theoretical
"""


# none is a config key, so each exits 2 with "unknown key"; all but the
# first were keys once
UNKNOWN_KEYS = (
    "frobnicate",
    "constraint_mode",
    "t_grid",
    "solver",
    "solver_max_iter",
    "solver_tol",
    "solver_gap_tol",
    "rsc_alpha",
    "rsc_epsilon",
)


@pytest.fixture
def matched_path(tmp_path):
    path = tmp_path / "matched.cfg"
    path.write_text(MATCHED_CFG)
    return str(path)


@pytest.fixture
def mismatched_path(tmp_path):
    path = tmp_path / "mismatched.cfg"
    path.write_text(MISMATCHED_CFG)
    return str(path)


class TestLoadConfig:
    def test_minimal_matched_parses(self, matched_path):
        cfg = load_config(matched_path)
        assert cfg.family == "gaussian"
        assert cfg.n_grid == (20, 40, 80)
        assert cfg.p == 30

    def test_overrides_applied_after_file(self, matched_path):
        cfg = load_config(matched_path, ["trials=9", "noise_scale=0.25"])
        assert cfg.trials == 9
        assert cfg.noise_scale == 0.25

    def test_unknown_key_named(self, matched_path):
        # constraint_mode is no key: slack alone sets matched (0) or mismatched (> 0);
        # projected gradient is the one solver, and its cap and tolerances and the rsc alpha are constants
        for key in UNKNOWN_KEYS:
            with pytest.raises(ConfigError) as err:
                load_config(matched_path, [f"{key}=matched"])
            assert err.value.key == key

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("p = 10\np = 20\ns=1\nn_grid=10\ntrials=1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(str(path))

    def test_unparsable_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p = ten\ns=1\nn_grid=10\ntrials=1\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.key == "p"

    def test_shipped_configs_and_readme_example_load(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = tmp_path / "example.cfg"
        example.write_text(readme.split("Example:\n\n```\n", 1)[1].split("```", 1)[0])
        # slack alone sets the constraint: 0 is matched, > 0 mismatched
        for path, matched in (
            (ROOT / "configs" / "matched.cfg", True),
            (ROOT / "configs" / "mismatched.cfg", False),
            (example, True),
        ):
            assert (load_config(str(path)).slack == 0.0) == matched, path

    def test_byte_order_mark_ignored(self, tmp_path):
        shipped = ROOT / "configs" / "matched.cfg"
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + shipped.read_bytes())
        assert load_config(str(marked)) == load_config(str(shipped))

    def test_round_trip(self, matched_path, tmp_path):
        cfg = load_config(matched_path)
        rendered = tmp_path / "rendered.cfg"
        rendered.write_text(serialize_config(cfg))
        assert load_config(str(rendered)) == cfg

    def test_round_trip_every_field_in_field_order(self, mismatched_path, tmp_path):
        overrides = ["mu_mode=empirical", "ensemble=rademacher"]
        cfg = load_config(mismatched_path, overrides)
        text = serialize_config(cfg)
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert [line.split(" = ")[0] for line in text.splitlines()] == names
        rendered = tmp_path / "rendered.cfg"
        rendered.write_text(text)
        assert load_config(str(rendered)) == cfg


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("width", "solve", "rsc", "sweep", "slope"):
            assert name in out

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2

    def test_unknown_override_exits_two(self, matched_path, capsys):
        for key in UNKNOWN_KEYS:
            code = main(["width", "--config", matched_path, f"{key}=1"])
            assert code == 2
            assert f"'{key}': unknown key" in capsys.readouterr().err

    def test_non_finite_value_exits_two(self, mismatched_path, capsys):
        for override in ("theta_magnitude=nan", "noise_scale=inf", "slack=inf"):
            key = override.split("=")[0]
            assert main(["sweep", "--config", mismatched_path, override]) == 2
            assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("magnitude", ("1e308", "1e-320"))
    def test_theta_magnitude_out_of_float_range_exits_two(self, magnitude, capsys):
        # with s = 5, ||theta*||_1 overflows at 1e308; at 1e-320 the outer radius underflows to 0
        shipped = str(ROOT / "configs" / "matched.cfg")
        assert main(["sweep", "--config", shipped, "trials=1", f"theta_magnitude={magnitude}"]) == 2
        assert "config key 'theta_magnitude'" in capsys.readouterr().err

    @pytest.mark.parametrize("slack", ("1e-100", "1e-300"))
    def test_slack_far_below_the_truth_exits_two(self, slack, capsys):
        shipped = str(ROOT / "configs" / "mismatched.cfg")
        assert main(["width", "--config", shipped, f"slack={slack}", "mc_samples=500"]) == 2
        assert "config key 'slack'" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["width", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_width_matched_shape(self, matched_path, capsys):
        assert main(["width", "--config", matched_path]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "kind,t,width_mean,width_stderr,samples"
        assert len(out) == 2
        fields = out[1].split(",")
        assert fields[0] == "cone"
        assert float(fields[2]) > 0 and float(fields[3]) > 0 and int(fields[4]) == 400

    @pytest.mark.parametrize("shipped", ("matched.cfg", "mismatched.cfg"))
    @pytest.mark.parametrize("command", ("width", "solve", "rsc", "sweep"))
    def test_removed_t_grid_key_exits_two(self, shipped, command, tmp_path, capsys):
        # the radii come from F alone and projected gradient is the one solver, so both keys are
        # gone, in the file as on the command line
        text = (ROOT / "configs" / shipped).read_text(encoding="utf-8")
        for key, value in (("t_grid", "0.25,0.5,1"), ("solver", "frank_wolfe")):
            in_file = tmp_path / f"{key}-{shipped}"
            in_file.write_text(text + f"{key} = {value}\n")
            for argv in (["--config", str(in_file)], ["--config", str(ROOT / "configs" / shipped), f"{key}={value}"]):
                assert main([command, *argv]) == 2
                assert capsys.readouterr().err == f"config error: config key '{key}': unknown key\n"

    def test_invalid_thread_count_exits_one(self, matched_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONEWIDTH_THREADS", "abc")
        out = str(tmp_path / "a.csv")
        assert main(["sweep", "--config", matched_path, "--out", out, "n_grid=20", "trials=1"]) == 1
        assert "error: CONEWIDTH_THREADS must be an integer, got 'abc'" in capsys.readouterr().err

    def test_width_mismatched_rows(self, mismatched_path, capsys):
        # a localized row at each radius that prepare_sweep derives from F, then the global row
        assert main(["width", "--config", mismatched_path]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["localized"] * 12 + ["global"]
        fset = FeasibleSet(*sweep_truth(load_config(mismatched_path)))
        radii = np.geomspace(0.8 / math.sqrt(20), fset.outer_radius, 14)[1:-1]
        assert [float(row[1]) for row in rows[:-1]] == list(radii)
        assert all(int(row[4]) == 300 for row in rows[:-1])

    def test_global_width_row_is_exact(self, mismatched_path, capsys):
        # no draw behind the global row: master_seed and mc_samples leave it and the quadrature alone
        configs = [[f"master_seed={seed}", f"mc_samples={m}"] for seed, m in itertools.product((1, 2), (200, 400))]
        rows = set()
        for overrides in configs:
            assert main(["width", "--config", mismatched_path, *overrides]) == 0
            rows.add(capsys.readouterr().out.strip().split("\n")[-1])
        assert len(rows) == 1
        fsets = [FeasibleSet(*sweep_truth(load_config(mismatched_path, overrides))) for overrides in configs]
        (width,) = {geometry.global_width_l1(fset) for fset in fsets}
        assert rows == {f"global,nan,{width:.17g},0,0"}

    def test_solve_row(self, matched_path, capsys):
        assert main(["solve", "--config", matched_path]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("n,method,objective")
        assert out[1].split(",")[1] == "projected_gradient"

    @pytest.mark.parametrize("fixture", ("matched_path", "mismatched_path"))
    def test_solve_row_is_sweep_trial_zero(self, request, fixture, capsys):
        # one solver: solve's row at n_grid[0] reports the sweep's own solve of that trial
        path = request.getfixturevalue(fixture)
        assert main(["solve", "--config", path]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.strip().split("\n"))
        config = load_config(path)
        (record,) = (r for r in cli.run_sweep(config).records if (r.n, r.trial) == (config.n_grid[0], 0))
        expected = {
            "error_l2": record.error_l2,
            "error_l1": record.error_l1,
            "iterations": record.solver_iters,
            "final_gap": record.final_gap,
        }
        assert {name: row[header.index(name)] for name in expected} == {
            name: experiment._cell(value) for name, value in expected.items()
        }

    def test_rsc_rows(self, matched_path, capsys):
        assert main(["rsc", "--config", matched_path]) == 0
        header, *rows = (line.split(",") for line in capsys.readouterr().out.strip().split("\n"))
        assert header == ["n", "mu_hat", "quantile_mu", "mu_theoretical", "directions", "epsilon", "alpha"]
        assert [int(row[0]) for row in rows] == [20, 40, 80]  # one row per grid n
        for row in rows:
            assert row[4:] == ["120", "0.5", "1"]  # rsc_directions, epsilon = 0.5, alpha = 1

    def test_rsc_matches_sweep_probe_mismatched(self, mismatched_path, capsys):
        # both probe trial 0's ("design", n, 0) draw on the sweep's direction set
        # at t*(n); at this seed t*(30) and t*(60) are the sixth and fifth radii,
        # so the probes use the sets of streams ("rsc", 5) and ("rsc", 4)
        assert main(["rsc", "--config", mismatched_path, "master_seed=9"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        result = cli.run_sweep(load_config(mismatched_path, ["master_seed=9"]))
        sweep_mu = {r.n: experiment._fmt(r.mu_hat) for r in result.records if r.trial == 0}
        assert {int(row[0]): row[1] for row in rows} == sweep_mu

    def test_sweep_deterministic_files(self, matched_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", matched_path, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", matched_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.trials.csv").read_bytes() == (tmp_path / "b.csv.trials.csv").read_bytes()

    def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # n > p gaussian trials draw their Wishart statistics, whose BLAS rounding
        # follows the thread count unless the package pins one thread
        env = {k: v for k, v in os.environ.items() if k != "CONEWIDTH_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"blas{threads}.csv")
            subprocess.run(
                [sys.executable, "-m", "conewidth.cli", "sweep", "--config", str(ROOT / "configs" / "mismatched.cfg"),
                 "--out", str(outs[-1]), "n_grid=256,512", "trials=2", "mc_samples=200"],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, check=True,
            )
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert Path(f"{outs[0]}.trials.csv").read_bytes() == Path(f"{outs[1]}.trials.csv").read_bytes()

    def test_sweep_then_slope(self, matched_path, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert main(["sweep", "--config", matched_path, "--out", str(out)]) == 0
        assert main(["slope", "--csv", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "series,slope,intercept,half_width"
        assert lines[1].startswith("mean_error,")
        assert lines[2].startswith("bound,")

    @pytest.mark.parametrize(
        "fixture, overrides", [("matched_path", []), ("mismatched_path", ["n_grid=30,60,120"])]
    )
    def test_slope_rows_match_sweep_fits(self, request, fixture, overrides, tmp_path, capsys):
        result = cli.run_sweep(load_config(request.getfixturevalue(fixture), overrides))
        assert result.slope_error is not None and result.slope_bound is not None
        agg = tmp_path / "agg.csv"
        agg.write_text(result.aggregate_csv())
        assert main(["slope", "--csv", str(agg)]) == 0
        expected = [
            ",".join((name, *map(experiment._fmt, (fit.slope, fit.intercept, fit.half_width))))
            for name, fit in (("mean_error", result.slope_error), ("bound", result.slope_bound))
        ]
        assert capsys.readouterr().out.strip().split("\n")[1:] == expected

    def test_slope_of_two_point_grid_is_nan(self, matched_path, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert main(["sweep", "--config", matched_path, "--out", str(out), "n_grid=20,40", "trials=2"]) == 0
        assert "#" not in out.read_text()
        capsys.readouterr()
        assert main(["slope", "--csv", str(out)]) == 0
        assert capsys.readouterr().out == (
            "series,slope,intercept,half_width\nmean_error,nan,nan,nan\nbound,nan,nan,nan\n"
        )

    def test_slope_rejects_trials_csv(self, matched_path, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert main(["sweep", "--config", matched_path, "--out", str(out), "trials=2"]) == 0
        capsys.readouterr()
        trials = str(out) + ".trials.csv"
        assert main(["slope", "--csv", trials]) == 1
        assert f"error: {trials} is not an aggregate sweep CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n,mean_error,bound\n40,0.1\n",
            "n,mean_error,bound\nforty,0.1,0.2\n",
            "n,mean_error,bound\n0,0.4,0.8\n10,0.1,0.2\n20,0.05,0.1\n40,0.02,0.05\n",
            "n,mean_error,bound\n40,0.1,0.2\n40,0.09,0.2\n40,0.11,0.2\n",
            "n,mean_error,bound\n10,0.4,0.8\n40,0.1,0.2\n20,0.2,0.4\n",
        ],
        ids=["empty", "short_row", "non_numeric_n", "zero_n", "constant_n", "unsorted_n"],
    )
    def test_slope_rejects_malformed_csv(self, text, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["slope", "--csv", str(path)]) == 1
        assert f"error: {path} is not an aggregate sweep CSV" in capsys.readouterr().err

    def test_sweep_reports_unconverged_trials(self, matched_path, tmp_path, capsys, monkeypatch):
        assert main(["sweep", "--config", matched_path, "--out", str(tmp_path / "a.csv")]) == 0
        assert capsys.readouterr().err == "sweep: 12 trials, 0 not converged, 0 failed\n"
        monkeypatch.setattr(solver, "projected_gradient", functools.partial(solver.projected_gradient, max_iter=1))
        out = tmp_path / "capped.csv"
        assert main(["sweep", "--config", matched_path, "--out", str(out)]) == 0
        result = cli.run_sweep(load_config(matched_path))
        unconverged = sum(not r.converged for r in result.records)
        assert unconverged > 0
        assert capsys.readouterr().err == f"sweep: 12 trials, {unconverged} not converged, 0 failed\n"
        assert out.read_text() == result.aggregate_csv()
        assert (tmp_path / "capped.csv.trials.csv").read_text() == result.trials_csv()

    def test_sweep_lists_failed_trials(self, matched_path, tmp_path, capsys, monkeypatch):
        from conewidth import experiment

        run_trial = experiment.run_trial

        def flaky(ctx, n, trial_index):
            if (n, trial_index) in ((20, 1), (80, 3)):
                raise ValueError(f"injected at {n}/{trial_index}")
            return run_trial(ctx, n, trial_index)

        monkeypatch.setattr(experiment, "run_trial", flaky)
        # one failure in 5 stays under the 20% that aborts a grid point
        assert main(["sweep", "--config", matched_path, "--out", str(tmp_path / "a.csv"), "trials=5"]) == 0
        assert capsys.readouterr().err == (
            "sweep: 15 trials, 0 not converged, 2 failed: "
            "(20, 1, 'injected at 20/1'), (80, 3, 'injected at 80/3')\n"
        )

    def test_config_file_not_mutated(self, matched_path, tmp_path):
        digest = hashlib.sha256(Path(matched_path).read_bytes()).hexdigest()
        main(["width", "--config", matched_path])
        main(["sweep", "--config", matched_path, "--out", str(tmp_path / "x.csv")])
        assert hashlib.sha256(Path(matched_path).read_bytes()).hexdigest() == digest
