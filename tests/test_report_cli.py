from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import re
import shlex
import shutil
import sys
import tempfile
import weakref
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthmeter import cli, demo, fidelity, gmm, kernels, poisoning, privacy, profiles, report, utility
from synthmeter.errors import InvalidConfig, RatioNotComputed
from synthmeter.generators import GeneratorMetadata, MemorizerConfig, memorizer_generate
from synthmeter.poisoning import OutlierSpec, make_attack_registry, write_registry
from synthmeter.profiles import Horizon, SplitSpec, read_wide, split_households, write_wide


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end workspace: train/holdout/synthetic/registry files."""
    base = tmp_path_factory.mktemp("workspace")
    population = demo.make_population(40, 8, seed=2)
    train, holdout = split_households(population, SplitSpec(holdout_fraction=0.5, seed=0))
    registry = make_attack_registry(OutlierSpec(count=20, seed=1), Horizon.DAILY)
    synthetic = memorizer_generate(train, 200, MemorizerConfig(jitter_sigma=0.02, seed=3))
    write_wide(train, base / "train.csv")
    write_wide(holdout, base / "holdout.csv")
    write_wide(synthetic, base / "synthetic.csv")
    write_registry(registry, base / "registry.csv")
    return base


def write_manifest(base: Path, payload: dict, name: str = "manifest.json") -> Path:
    path = base / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def unread(path, *args, **kwargs):
    """Stands in for a file reader that a rejected input must never reach."""
    raise AssertionError(f"{path} was read before the input was checked")


def forbid_reads(patch) -> None:
    """Replace ``read_wide`` and ``read_registry`` with ``unread`` in every synthmeter
    module that binds them, as perfbench/tracing.py wraps its targets, so a guard
    holds whichever module's binding the read path calls."""
    readers = (profiles.read_wide, poisoning.read_registry)
    for name, module in list(sys.modules.items()):
        if name.startswith("synthmeter"):
            for attr, value in list(vars(module).items()):
                if any(value is reader for reader in readers):
                    patch.setattr(module, attr, unread)


@pytest.fixture
def no_reads(monkeypatch):
    """No profile or registry row may be read in the test."""
    forbid_reads(monkeypatch)


# every subcommand that takes --seed, with its required flags
SEEDED_COMMANDS = {
    "split": ["split", "--input", "p.csv", "--holdout-fraction", "0.5", "--train-out", "a.csv",
              "--holdout-out", "b.csv"],
    "inject": ["inject-outliers", "--train", "p.csv", "--poisoned-out", "a.csv", "--registry-out", "b.csv"],
    "generate": ["generate", "--kind", "gmm", "--train", "p.csv", "--n", "5", "--output", "a.csv"],
    "fidelity": ["fidelity", "--real", "p.csv", "--synthetic", "p.csv", "--report", "r.json"],
    "privacy": ["privacy", "recon", "--train", "p.csv", "--holdout", "p.csv", "--synthetic", "p.csv",
                "--report", "r.json"],
    "utility": ["utility", "tstr-classify", "--real-fit", "p.csv", "--synthetic-fit", "p.csv", "--eval", "p.csv",
                "--report", "r.json"],
    "evaluate": ["evaluate", "--manifest", "m.json"],
    "demo": ["demo", "--output-dir", "ws"],
}


class TestThresholdPolicy:
    def _result(self):
        ratios = privacy.default_threshold_ratios()
        fractions = {r: (0.0 if r < 0.3 else 0.25 if r < 0.6 else 1.0) for r in ratios}
        return privacy.ReconstructionResult(
            fraction_reconstructed=fractions,
            per_outlier_nn_distance_ratio=np.linspace(0.3, 1.0, 20),
        )

    def test_pass(self):
        verdict = report.threshold_policy_check(self._result(), 0.25, 0.0)
        assert verdict.passed

    def test_fail(self):
        verdict = report.threshold_policy_check(self._result(), 0.3, 0.0)
        assert not verdict.passed
        assert verdict.fraction_at_ratio == 0.25

    def test_vacuous_policy_always_passes(self):
        verdict = report.threshold_policy_check(self._result(), 1.0, 1.0)
        assert verdict.passed

    def test_missing_ratio(self):
        with pytest.raises(RatioNotComputed):
            report.threshold_policy_check(self._result(), 0.33, 0.0)


class TestRunFullEvaluation:
    def test_fidelity_only_marks_others_not_run(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "seed": 0,
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "fidelity": {"clusters_k": 4},
            },
            name="fidelity_only.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert outcome.ok
        assert outcome.report["privacy"] == {"status": "not_run"}
        assert outcome.report["utility"] == {"status": "not_run"}
        assert "acf_mmd" in outcome.report["fidelity"]

    def test_file_keys_no_requested_part_reads_may_be_left_out(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {"train": "train.csv", "synthetic": "synthetic.csv", "registry": "registry.csv",
             "fidelity": {"clusters_k": 4}, "privacy": {"recon_poisoned": True}},
            name="no_holdout.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert outcome.ok
        assert set(outcome.report["input_digests"]) == {"train", "synthetic", "registry"}
        assert "fraction_reconstructed" in outcome.report["privacy"]["reconstruction"]

    def test_reports_byte_identical_except_timestamp(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "seed": 1,
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "registry": "registry.csv",
                "fidelity": {"clusters_k": 4},
                "privacy": {"recon": True, "recon_poisoned": True, "mia": True, "mia_poisoned": True},
            },
            name="full.json",
        )
        first = report.run_full_evaluation(manifest, output_dir=tmp_path / "a")
        second = report.run_full_evaluation(manifest, output_dir=tmp_path / "b")
        body_a = {k: v for k, v in first.report.items() if k != "timestamp"}
        body_b = {k: v for k, v in second.report.items() if k != "timestamp"}
        assert body_a == body_b
        text_a = (tmp_path / "a" / "report.json").read_text().splitlines()
        text_b = (tmp_path / "b" / "report.json").read_text().splitlines()
        diff = [
            (a, b) for a, b in zip(text_a, text_b) if a != b and "timestamp" not in a
        ]
        assert diff == []

    def test_policy_verdict_embedded(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "registry": "registry.csv",
                "privacy": {
                    "recon_poisoned": True,
                    "policy": {"ratio": 0.3, "max_fraction": 0.0},
                },
            },
            name="policy.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert outcome.ok
        verdict = outcome.report["privacy"]["policy_verdict"]
        assert set(verdict) == {"policy_ratio", "max_fraction", "fraction_at_ratio", "passed"}

    def test_side_file_schemas_round_trip(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "registry": "registry.csv",
                "fidelity": True,
                "privacy": {"recon_poisoned": True},
            },
            name="sides.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        stats = np.genfromtxt(
            tmp_path / "out" / "per_slot_statistics.csv", delimiter=",", names=True
        )
        assert len(stats) == 48
        values = [name for name in stats.dtype.names if name != "slot"]
        assert len(values) == 6
        for name in values:
            assert np.isfinite(stats[name]).all(), name
        curve = np.genfromtxt(
            tmp_path / "out" / "reconstruction_cdf.csv", delimiter=",", names=True
        )
        assert set(curve.dtype.names) == {"ratio", "fraction"}
        fractions = [row["fraction"] for row in curve]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        coords = (tmp_path / "out" / "pca_coordinates.csv").read_text().splitlines()
        assert coords[0] == "set,x,y"

    def test_repeated_file_read_and_hashed_once(self, workspace, tmp_path, monkeypatch):
        calls = {"read_wide": [], "file_digest": []}

        def counting(name):
            original = getattr(report, name)

            def wrapper(path, *args, **kwargs):
                calls[name].append(Path(path).name)
                return original(path, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(report, name, counting(name))
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "privacy": {"recon": True},
                "utility": {"real_fit": "synthetic.csv", "synthetic_fit": "train.csv",
                            "eval": "missing.csv", "allow_overlap": True},
            },
            name="repeated.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        # train.csv is also the synthetic fit set and synthetic.csv the real fit set:
        # a file is read once per path, whatever data each key names it as
        assert calls["read_wide"] == ["train.csv", "holdout.csv", "synthetic.csv", "missing.csv"]
        assert calls["file_digest"] == ["train.csv", "holdout.csv", "synthetic.csv"]
        digests = outcome.report["input_digests"]
        assert digests["utility_synthetic_fit"] == digests["train"]
        assert digests["utility_real_fit"] == digests["synthetic"]
        # the unreadable utility file fails only its own section
        assert outcome.report["utility"]["status"] == "failed"
        assert "statistic" in outcome.report["privacy"]["ks"]

    def test_demo_runs_clean_with_floating_point_errors_raised(self, tmp_path):
        # the caller's np.errstate holds on the kernel and mixture-fit helpers
        # too; underflow is left out, as kernel values underflow to 0 by design
        manifest = demo.build_demo_workspace(tmp_path / "demo", households=40, seed=0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert outcome.failures == []


class TestCli:
    def test_ingest_split_pipeline(self, tmp_path, capsys):
        population = demo.make_population(12, 4, seed=9)
        demo.write_long_csv(population, tmp_path / "readings.csv")
        rc = cli.main(
            [
                "ingest",
                "--input", str(tmp_path / "readings.csv"),
                "--horizon", "daily",
                "--output", str(tmp_path / "wide.csv"),
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "split",
                "--input", str(tmp_path / "wide.csv"),
                "--holdout-fraction", "0.5",
                "--seed", "3",
                "--train-out", str(tmp_path / "train.csv"),
                "--holdout-out", str(tmp_path / "holdout.csv"),
            ]
        )
        assert rc == 0
        train = read_wide(tmp_path / "train.csv")
        holdout = read_wide(tmp_path / "holdout.csv")
        assert set(train.household_ids).isdisjoint(holdout.household_ids)

    def test_ingest_names_the_line_of_a_kwh_above_the_bound(self, tmp_path, capsys):
        readings = tmp_path / "readings.csv"
        stamps = [f"2013-02-04T{slot // 2:02d}:{slot % 2 * 30:02d}:00" for slot in range(48)]
        kwh = ["0.5"] * 48
        kwh[5] = "1e300"  # finite, but above MAX_KWH: line 7
        readings.write_text("household_id,timestamp,kwh\n" + "".join(f"h1,{t},{v}\n" for t, v in zip(stamps, kwh)))
        output = tmp_path / "wide.csv"
        rc = cli.main(["ingest", "--input", str(readings), "--horizon", "daily", "--output", str(output)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {readings}: line 7: kwh above 1e+100, got 1e300\n"
        assert not output.exists()

    def test_inject_generate_attack_pipeline(self, tmp_path):
        population = demo.make_population(30, 6, seed=4)
        write_wide(population, tmp_path / "train.csv")
        rc = cli.main(
            [
                "inject-outliers",
                "--train", str(tmp_path / "train.csv"),
                "--count", "10",
                "--seed", "2",
                "--poisoned-out", str(tmp_path / "poisoned.csv"),
                "--registry-out", str(tmp_path / "registry.csv"),
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "generate",
                "--kind", "memorizer",
                "--train", str(tmp_path / "poisoned.csv"),
                "--n", "200",
                "--seed", "5",
                "--output", str(tmp_path / "synthetic.csv"),
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "privacy", "recon-poisoned",
                "--registry", str(tmp_path / "registry.csv"),
                "--synthetic", str(tmp_path / "synthetic.csv"),
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "recon.json").read_text())
        assert "fraction_reconstructed" in payload

    def test_recon_poisoned_ratio_range_and_curve(self, workspace, tmp_path, capsys):
        rc = cli.main(
            [
                "privacy", "recon-poisoned",
                "--registry", str(workspace / "registry.csv"),
                "--synthetic", str(workspace / "synthetic.csv"),
                "--ratios", "0.1:0.5:0.1",
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 0
        fractions = json.loads((tmp_path / "recon.json").read_text())["fraction_reconstructed"]
        assert list(fractions) == ["0.1", "0.2", "0.3", "0.4", "0.5"]
        expected = "ratio,fraction\n" + "".join(f"{r},{v!r}\n" for r, v in fractions.items())
        assert (tmp_path / "recon.curve.csv").read_text() == expected
        out = capsys.readouterr().out
        assert f"reconstruction curve written to {tmp_path / 'recon.curve.csv'};" in out
        assert "reconstructed at ratio 0.3" in out

    def test_recon_poisoned_curve_out_is_an_unknown_flag(self, tmp_path, monkeypatch, capsys):
        # the curve always goes beside the report, as <report>.curve.csv
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["privacy", "recon-poisoned", "--registry", "r", "--synthetic", "s",
                      "--report", "recon.json", "--curve-out", "c.csv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --curve-out c.csv" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "ratios",
        ["0.1:0.5", "0.1:0.5:0", "0:1:0.1", "0.00001:1:0.000099999", "0.05:1:1e-320"],
        ids=["two_parts", "zero_step", "zero_start", "10001_points", "subnormal_step"],
    )
    def test_recon_poisoned_bad_ratios_exit_2(self, workspace, tmp_path, capsys, no_reads, ratios):
        rc = cli.main(
            [
                "privacy", "recon-poisoned",
                "--registry", str(workspace / "registry.csv"),
                "--synthetic", str(workspace / "synthetic.csv"),
                "--ratios", ratios,
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --ratios ") and err.count("\n") == 1
        assert not (tmp_path / "recon.json").exists()

    def test_recon_poisoned_colliding_ratios_exit_2(self, workspace, tmp_path, capsys, no_reads):
        # 0.5 and 0.5 + 1e-13 are one point after the grid's round(..., 10)
        rc = cli.main(
            [
                "privacy", "recon-poisoned",
                "--registry", str(workspace / "registry.csv"),
                "--synthetic", str(workspace / "synthetic.csv"),
                "--ratios", "0.5:0.5000000000001:1e-13",
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: 'threshold_ratios' must be distinct, got [0.5, 0.5]\n"
        assert not (tmp_path / "recon.json").exists()

    def test_recon_poisoned_negative_sample_size_exits_2(self, workspace, tmp_path, capsys, no_reads):
        # the config is built before any file is read
        rc = cli.main(
            [
                "privacy", "recon-poisoned",
                "--registry", str(workspace / "registry.csv"),
                "--synthetic", str(workspace / "synthetic.csv"),
                "--sample-size", "-1",
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'sample_size'" in err
        assert not (tmp_path / "recon.json").exists()

    def test_recon_sample_size_below_ks_minimum_exits_2(self, workspace, tmp_path, capsys, no_reads):
        # the KS minimum is checked before any file is read
        rc = cli.main(
            [
                "privacy", "recon",
                "--train", str(workspace / "train.csv"),
                "--holdout", str(workspace / "holdout.csv"),
                "--synthetic", str(workspace / "synthetic.csv"),
                "--sample-size", "3",
                "--report", str(tmp_path / "recon.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'sample_size' must be at least 5 for the recon attack, got 3" in err
        assert not (tmp_path / "recon.json").exists()

    def test_generate_gmm_and_fidelity(self, tmp_path):
        population = demo.make_population(40, 6, seed=8)
        write_wide(population, tmp_path / "real.csv")
        rc = cli.main(
            [
                "generate",
                "--kind", "gmm",
                "--train", str(tmp_path / "real.csv"),
                "--n", "200",
                "--k", "5",
                "--seed", "1",
                "--output", str(tmp_path / "synthetic.csv"),
            ]
        )
        assert rc == 0
        config = tmp_path / "fid.json"
        config.write_text(json.dumps({"clusters_k": 4}))
        rc = cli.main(
            [
                "fidelity",
                "--real", str(tmp_path / "real.csv"),
                "--synthetic", str(tmp_path / "synthetic.csv"),
                "--config", str(config),
                "--report", str(tmp_path / "fidelity.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "fidelity.json").read_text())
        assert set(payload) >= {"acf_mmd", "profile_mmd", "peaks_mmd", "cluster_kl"}

    def test_fidelity_config_file_sets_mmd_bandwidth(self, tmp_path):
        real = demo.make_population(30, 6, seed=8)
        synthetic = memorizer_generate(real, 120, MemorizerConfig(jitter_sigma=0.05, seed=2))
        write_wide(real, tmp_path / "real.csv")
        write_wide(synthetic, tmp_path / "synthetic.csv")
        config = tmp_path / "fid.json"
        config.write_text(json.dumps({"clusters_k": 4, "mmd_bandwidth": 2.0}))
        rc = cli.main(
            [
                "fidelity",
                "--real", str(tmp_path / "real.csv"),
                "--synthetic", str(tmp_path / "synthetic.csv"),
                "--config", str(config),
                "--seed", "0",
                "--report", str(tmp_path / "fidelity.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "fidelity.json").read_text())
        real = read_wide(tmp_path / "real.csv")
        synthetic = read_wide(tmp_path / "synthetic.csv", horizon=real.horizon)
        fixed, median = (
            report.entry(fidelity.evaluate_fidelity(
                real, synthetic, fidelity.FidelityConfig(clusters_k=4, mmd_bandwidth=bandwidth, seed=0)
            ))
            for bandwidth in (2.0, kernels.MEDIAN_HEURISTIC)
        )
        for key in ("acf_mmd", "profile_mmd", "peaks_mmd"):
            assert payload[key] == fixed[key]
            assert payload[key] != median[key]

    @pytest.mark.parametrize(
        "options",
        [
            {"peaks_n": 0},
            {"mmd_bandwidth": "medain"},
            {"mmd_bandwidth": -1.0},
            {"mmd_bandwidth": 1e-300},
            {"mmd_bandwidth": 10**400},
            {"clusters_k": "four"},
            {"kl_smoothing": -1.0},
            {"mmd_bandwith": 1.0},
            {"clusters_k": 0},
            {"acf_max_lag": 48},
        ],
        ids=[
            "peaks_n_0", "bandwidth_typo", "bandwidth_negative", "bandwidth_square_underflows",
            "bandwidth_beyond_float", "clusters_k_text",
            "kl_smoothing_negative", "unknown_key", "clusters_k_0", "acf_max_lag_48",
        ],
    )
    def test_fidelity_config_error_exits_2(self, tmp_path, capsys, no_reads, options):
        write_wide(demo.make_population(20, 6, seed=8), tmp_path / "real.csv")
        config = tmp_path / "fid.json"
        config.write_text(json.dumps(options))
        # the config is built before any profile is read, and its error names the key
        rc = cli.main(
            [
                "fidelity",
                "--real", str(tmp_path / "real.csv"),
                "--synthetic", str(tmp_path / "real.csv"),
                "--config", str(config),
                "--report", str(tmp_path / "fidelity.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(repr(key) in err for key in options)
        assert not (tmp_path / "fidelity.json").exists()

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("gmm", ["--k", "0"], "'k' must be at least 1, got 0"),
            ("gmm", ["--n", "0"], "--n must be at least 1, got 0"),
            ("memorizer", ["--n", "0"], "--n must be at least 1, got 0"),
            ("memorizer", ["--jitter", "-1"], "'jitter_sigma' must be non-negative, got -1.0"),
            # a flag of the other kind would be ignored, so it is rejected
            ("memorizer", ["--k", "0"], "--k does not apply to --kind memorizer"),
            ("gmm", ["--jitter", "0.5"], "--jitter does not apply to --kind gmm"),
        ],
        ids=["gmm_k_0", "gmm_n_0", "memorizer_n_0", "memorizer_jitter_negative", "memorizer_k", "gmm_jitter"],
    )
    def test_generate_config_error_exits_2(self, tmp_path, capsys, monkeypatch, no_reads, kind, extra, message):
        write_wide(demo.make_population(20, 6, seed=8), tmp_path / "real.csv")
        fits = []
        fit = gmm.fit
        monkeypatch.setattr(gmm, "fit", lambda *args: fits.append(1) or fit(*args))
        args = ["--n", "50", *extra]  # argparse keeps the last --n
        rc = cli.main(
            [
                "generate", "--kind", kind, "--train", str(tmp_path / "real.csv"), *args,
                "--output", str(tmp_path / "synthetic.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err  # the key and the value
        assert not fits  # rejected before any mixture fit
        assert not (tmp_path / "synthetic.csv").exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["split", "--input", "{real}", "--holdout-fraction", "1.5",
              "--train-out", "{out}", "--holdout-out", "{out2}"], "'holdout_fraction' must be in (0, 1), got 1.5"),
            (["inject-outliers", "--train", "{real}", "--count", "0",
              "--poisoned-out", "{out}", "--registry-out", "{out2}"], "'count' must be at least 1, got 0"),
            (["inject-outliers", "--train", "{real}", "--sigma", "-1",
              "--poisoned-out", "{out}", "--registry-out", "{out2}"], "'sigma' must be non-negative, got -1.0"),
        ],
        ids=["split_fraction_1.5", "inject_count_0", "inject_sigma_negative"],
    )
    def test_spec_error_exits_2(self, tmp_path, capsys, no_reads, command, message):
        write_wide(demo.make_population(20, 6, seed=8), tmp_path / "real.csv")
        paths = {"real": tmp_path / "real.csv", "out": tmp_path / "a.csv", "out2": tmp_path / "b.csv"}
        rc = cli.main([arg.format(**paths) for arg in command])  # the spec is built before the file is read
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err  # the key and the value
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    def test_unknown_manifest_key_exits_2(self, workspace, tmp_path, capsys):
        manifest = write_manifest(
            workspace,
            {"train": "train.csv", "holdout": "holdout.csv", "synthetic": "synthetic.csv", "fidelty": True},
            name="typo.json",
        )
        rc = cli.main(["evaluate", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'fidelty'" in err and "'fidelity'" in err
        assert not (tmp_path / "out").exists()

    # each bad input and the text its error line must contain
    BAD_INPUT = {
        "horizon": "unknown horizon 'hourly'; expected daily or weekly",
        "negative_fidelity": "train_-0.5.csv: line 4: negative kWh value",
        "negative_split": "train_-0.5.csv: line 4: negative kWh value",
        "negative_evaluate": "train_-0.5.csv: line 4: negative kWh value",
        "missing_manifest": "No such file or directory: '{missing}.json'",
        "missing_input": "No such file or directory: '{missing}.csv'",
        "manifest_json": "{bad} is not valid JSON",
        "config_json": "{bad} is not valid JSON",
        "recon_switch": "privacy option 'recon' must be true or false, got 'no'",
        "allow_overlap_switch": "utility option 'allow_overlap' must be true or false, got 'no'",
        "generator_key": "unknown generator key 'claimed_epsilonn'; did you mean 'claimed_epsilon'?",
        "seed_string": "manifest key 'seed' must be a non-negative integer, got 'x'",
        "seed_bool": "manifest key 'seed' must be a non-negative integer, got True",
        "seed_negative": "manifest key 'seed' must be a non-negative integer, got -5",
        "generator_bool": "manifest key 'generator' must be an object, got True",
        "privacy_string": "manifest key 'privacy' must be an object, true, false or null, got 'yes'",
        "negative_registry": "registry_-0.5.csv: line 4: negative kWh value",
        "zero_norm_registry": "registry outlier row 2 (household outlier_seen_0002) is all zero",
        "sample_size_string": "privacy option 'sample_size' must be an integer or null, got '5'",
        "sample_size_float": "privacy option 'sample_size' must be an integer or null, got 5.5",
        "ratios_string": "privacy option 'threshold_ratios' must be a list of numbers, got '0.3'",
        "ratios_empty": "'threshold_ratios' must be non-empty, got []",
        "ratios_repeated": "'threshold_ratios' must be distinct, got [0.3, 0.3, 0.1]",
        "policy_no_max_fraction": "privacy option 'policy' must be an object with numeric ratio and max_fraction",
        "policy_list": "privacy option 'policy' must be an object with numeric ratio and max_fraction, got [0.3",
        "epochs_string": "utility option 'epochs' must be an integer, got 'ten'",
        "tasks_string": "utility option 'tasks' must be a non-empty list of strings, got 'classify'",
        "tasks_empty": "utility option 'tasks' must be a non-empty list of strings, got []",
        "fidelity_key": "unknown fidelity option 'mmd_bandwith'; did you mean 'mmd_bandwidth'?",
        "privacy_key": "unknown privacy option 'sample_sise'; did you mean 'sample_size'?",
        "utility_key": "unknown utility option 'epcohs'; did you mean 'epochs'?",
        "utility_task": "unknown utility task 'clasify'; did you mean 'classify'?",
        "train_number": "manifest key 'train' must be a string, got 5",
        "config_number": "fidelity options must be given as a JSON object, got 5",
        "lag_float": "fidelity option 'acf_max_lag' must be an integer, got 2.9",
        "clusters_bool": "fidelity option 'clusters_k' must be an integer, got True",
        "peaks_string": "fidelity option 'peaks_n' must be an integer, got '5'",
        "epsilon_string": "generator key 'claimed_epsilon' must be a number or null, got 'one'",
        "generator_name_number": "generator key 'name' must be a string, got 5",
        "demo_households_0": "households must be at least 4, got 0",
        "demo_households_3": "households must be at least 4, got 3",
        "demo_days_0": "days must be at least 2, got 0",
        "demo_days_1": "days must be at least 2, got 1",
        "clusters_k_0": "'clusters_k' must be at least 1, got 0",
        "quantile_1": "'quantiles' must be in (0, 1), got 1.0",
        "quantiles_repeated": "'quantiles' must be distinct, got [0.95, 0.5, 0.95]",
        "tasks_repeated": "'tasks' must be distinct, got ['classify', 'classify']",
        "epochs_0": "'epochs' must be at least 1, got 0",
        "ratio_0": "'threshold_ratios' must be in (0, 1], got 0.0",
        "sample_size_0": "'sample_size' must be at least 1, got 0",
        "ks_sample_size_3": "'sample_size' must be at least 5 for the recon attack, got 3",
        "acf_lag_48": "'acf_max_lag' must be below the horizon length 48, got 48",
        "policy_without_recon_poisoned": "privacy option 'policy' requires 'recon_poisoned' to be on",
        "registry_missing": "manifest key 'registry' is required by the poisoned attacks",
        "registry_missing_privacy_true": "manifest key 'registry' is required by the poisoned attacks",
        "train_missing": "manifest key 'train' is required by fidelity",
        "utility_eval_missing": "utility option 'eval' is required to run the utility suite",
        "utility_true": "utility option 'real_fit' is required to run the utility suite",
        "policy_off_grid": "policy ratio 0.33 is not among the threshold ratios",
        "nan_evaluate": "holdout_nan.csv: line 4: non-finite kWh value",
        "huge_recon": "holdout_1e300.csv: line 4: kWh magnitude above 1e+100",
        "huge_mia": "holdout_1e300.csv: line 4: kWh magnitude above 1e+100",
        "policy_nan": "manifest.json is not valid JSON: NaN is no JSON number",
        "delta_minus_infinity": "manifest.json is not valid JSON: -Infinity is no JSON number",
    }
    # the cases above that must read a profile file to find their fault
    READ_FIRST = ("negative_evaluate", "missing_input", "nan_evaluate")

    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_exits_2_naming_its_cause(self, workspace, tmp_path, capsys, monkeypatch, case):
        files = {name: str(workspace / f"{name}.csv") for name in ("train", "holdout", "synthetic", "registry")}
        fit = {"real_fit": files["train"], "synthetic_fit": files["synthetic"], "eval": files["holdout"],
               "allow_overlap": True}

        def edited(name, slots, value):
            """A copy of a workspace file whose profile row 2 reads ``value`` in ``slots``."""
            lines = (workspace / f"{name}.csv").read_text().splitlines()
            row = lines[3].split(",")
            for slot in slots:
                row[3 + slot] = value
            lines[3] = ",".join(row)
            path = tmp_path / f"{name}_{value}.csv"
            path.write_text("\n".join(lines) + "\n")
            return str(path)

        negative = edited("train", [7], "-0.5")
        huge = edited("holdout", range(48), "1e300")  # finite, but its squares overflow
        bad = tmp_path / "bad.json"
        bad.write_text('{"fidelity": true,')
        number = tmp_path / "number.json"
        number.write_text("5")
        missing = tmp_path / "missing"
        overrides = {
            "horizon": {"horizon": "hourly"},
            "negative_evaluate": {"train": str(negative)},
            "nan_evaluate": {"holdout": edited("holdout", [7], "nan")},
            "missing_input": {"synthetic": f"{missing}.csv"},
            "recon_switch": {"privacy": {"recon": "no", "mia": True}},
            "allow_overlap_switch": {"utility": {"allow_overlap": "no"}},
            "generator_key": {"generator": {"name": "x", "claimed_epsilonn": 1.0}},
            "seed_string": {"seed": "x"},
            "seed_bool": {"seed": True},
            "generator_bool": {"generator": True},
            "privacy_string": {"privacy": "yes"},
            "sample_size_string": {"privacy": {"recon": True, "sample_size": "5"}},
            "sample_size_float": {"privacy": {"recon": True, "sample_size": 5.5}},
            "ratios_string": {"privacy": {"recon_poisoned": True, "threshold_ratios": "0.3"}},
            "policy_no_max_fraction": {"privacy": {"recon_poisoned": True, "policy": {"ratio": 0.3}}},
            "policy_list": {"privacy": {"recon_poisoned": True, "policy": [0.3, 0.0]}},
            "epochs_string": {"utility": {**fit, "epochs": "ten"}},
            "tasks_string": {"utility": {**fit, "tasks": "classify"}},
            "seed_negative": {"seed": -5},
            "ratios_empty": {"privacy": {"recon_poisoned": True, "threshold_ratios": []}},
            "ratios_repeated": {"privacy": {"recon_poisoned": True, "threshold_ratios": [0.3, 0.3, 0.1]}},
            "tasks_empty": {"utility": {**fit, "tasks": []}},
            "fidelity_key": {"fidelity": {"mmd_bandwith": 1.0}},
            "privacy_key": {"privacy": {"recon": True, "sample_sise": 5}},
            "utility_key": {"utility": {**fit, "epcohs": 2}},
            "utility_task": {"utility": {**fit, "tasks": ["clasify"]}},
            "train_number": {"train": 5},
            "lag_float": {"fidelity": {"acf_max_lag": 2.9}},
            "clusters_bool": {"fidelity": {"clusters_k": True}},
            "peaks_string": {"fidelity": {"peaks_n": "5"}},
            "epsilon_string": {"generator": {"claimed_epsilon": "one"}},
            "generator_name_number": {"generator": {"name": 5}},
            "clusters_k_0": {"fidelity": {"clusters_k": 0}},
            "quantile_1": {"fidelity": {"quantiles": [1.0]}},
            "quantiles_repeated": {"fidelity": {"quantiles": [0.95, 0.5, 0.95]}},
            "tasks_repeated": {"utility": {**fit, "tasks": ["classify", "classify"]}},
            "epochs_0": {"utility": {**fit, "epochs": 0}},
            "ratio_0": {"privacy": {"recon_poisoned": True, "threshold_ratios": [0]}},
            "sample_size_0": {"privacy": {"recon": True, "sample_size": 0}},
            "ks_sample_size_3": {"privacy": {"recon": True, "sample_size": 3}},
            "acf_lag_48": {"fidelity": {"acf_max_lag": 48}},
            "policy_without_recon_poisoned": {"privacy": {"recon": True, "policy": {"ratio": 0.3, "max_fraction": 0.0}}},
            "registry_missing": {"registry": None, "privacy": {"recon": True, "mia_poisoned": True}},
            "registry_missing_privacy_true": {"registry": None, "privacy": True},
            "train_missing": {"train": None},
            "utility_eval_missing": {"utility": {key: fit[key] for key in ("real_fit", "synthetic_fit")}},
            "utility_true": {"utility": True},
            "policy_off_grid": {"privacy": {"recon_poisoned": True, "policy": {"ratio": 0.33, "max_fraction": 0.0}}},
            "policy_nan": {"privacy": {"recon_poisoned": True, "policy": {"ratio": 0.3, "max_fraction": math.nan}}},
            "delta_minus_infinity": {"generator": {"name": "x", "claimed_delta": -math.inf}},
        }
        # an override of None drops the key
        payload = {key: value for key, value in {**files, "fidelity": True, **overrides.get(case, {})}.items()
                   if value is not None}
        manifest = write_manifest(tmp_path, payload)
        out = ["--report", str(tmp_path / "r.json")]

        def evaluate(path):
            return ["evaluate", "--manifest", str(path), "--output-dir", str(tmp_path / "out")]

        def recon_poisoned(registry):
            return ["privacy", "recon-poisoned", "--registry", registry, "--synthetic", files["synthetic"], *out]

        commands = {
            "negative_registry": recon_poisoned(edited("registry", [7], "-0.5")),
            "zero_norm_registry": recon_poisoned(edited("registry", range(48), "0.0")),
            "negative_fidelity": ["fidelity", "--real", str(negative), "--synthetic", files["synthetic"], *out],
            "negative_split": ["split", "--input", str(negative), "--holdout-fraction", "0.5",
                               "--train-out", str(tmp_path / "a.csv"), "--holdout-out", str(tmp_path / "b.csv")],
            "missing_manifest": evaluate(f"{missing}.json"),
            "manifest_json": evaluate(bad),
            "config_json": ["fidelity", "--real", files["train"], "--synthetic", files["synthetic"],
                            "--config", str(bad), *out],
            "config_number": ["fidelity", "--real", files["train"], "--synthetic", files["synthetic"],
                              "--config", str(number), *out],
            "demo_households_0": ["demo", "--output-dir", str(tmp_path / "a.demo"), "--households", "0"],
            "demo_households_3": ["demo", "--output-dir", str(tmp_path / "a.demo"), "--households", "3"],
            "demo_days_0": ["demo", "--output-dir", str(tmp_path / "a.demo"), "--days", "0"],
            "demo_days_1": ["demo", "--output-dir", str(tmp_path / "a.demo"), "--days", "1"],
            "huge_recon": ["privacy", "recon", "--train", files["train"], "--holdout", files["holdout"],
                           "--synthetic", huge, *out],
            "huge_mia": ["privacy", "mia", "--train", files["train"], "--holdout", files["holdout"],
                         "--synthetic", huge, *out],
        }
        up_front = case not in commands and case not in self.READ_FIRST
        if up_front:  # a manifest fault must stop the run before any profile file is read
            forbid_reads(monkeypatch)
        rc = cli.main(commands.get(case, evaluate(manifest)))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert self.BAD_INPUT[case].format(missing=missing, bad=bad) in err
        assert not any(tmp_path.glob("[abr].*"))
        if up_front:
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", SEEDED_COMMANDS.values(), ids=[f"subcommand-{name}" for name in SEEDED_COMMANDS]
    )
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--seed", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed: must be a non-negative integer, got '-1'" in err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", SEEDED_COMMANDS)
    def test_seed_defaults_to_0_but_evaluate_leaves_it_to_the_manifest(self, name):
        args = cli.build_parser().parse_args(SEEDED_COMMANDS[name])
        assert args.seed == (None if name == "evaluate" else 0)

    @pytest.mark.parametrize(
        "argv",
        [["--seed", "1", "evaluate", "--manifest", "m.json"], ["--output-dir", "x", "demo"]],
        ids=["seed", "output_dir"],
    )
    def test_top_level_seed_and_output_dir_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: synthmeter ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["split", "--input", "p", "--holdout-f", "0.5", "--train-o", "a", "--holdout-o", "b", "--se", "3"],
            ["privacy", "recon", "--train", "p", "--holdout", "p", "--synthetic", "p", "--sample", "5",
             "--report", "r"],
            ["--vers"],
        ],
        ids=["split", "privacy_recon", "version"],
    )
    def test_abbreviated_flags_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: synthmeter ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_utility_zero_epochs_exits_2(self, tmp_path, capsys, no_reads):
        fit = demo.make_population(20, 8, seed=3, day_step=36)
        write_wide(fit, tmp_path / "fit.csv")
        # the config is built before any profile is read
        rc = cli.main(
            [
                "utility", "tstr-classify",
                "--real-fit", str(tmp_path / "fit.csv"),
                "--synthetic-fit", str(tmp_path / "fit.csv"),
                "--eval", str(tmp_path / "fit.csv"),
                "--epochs", "0",
                "--allow-overlap",
                "--report", str(tmp_path / "u.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epochs" in err and err.count("\n") == 1

    def test_utility_year_overlap_guard(self, tmp_path):
        fit = demo.make_population(20, 6, seed=3)
        write_wide(fit, tmp_path / "fit.csv")
        rc = cli.main(
            [
                "utility", "tstr-classify",
                "--real-fit", str(tmp_path / "fit.csv"),
                "--synthetic-fit", str(tmp_path / "fit.csv"),
                "--eval", str(tmp_path / "fit.csv"),
                "--epochs", "2",
                "--report", str(tmp_path / "u.json"),
            ]
        )
        assert rc == 2  # same years on both sides without --allow-overlap

    def test_utility_allow_overlap(self, tmp_path):
        fit = demo.make_population(20, 8, seed=3, day_step=36)
        write_wide(fit, tmp_path / "fit.csv")
        rc = cli.main(
            [
                "utility", "tstr-classify",
                "--real-fit", str(tmp_path / "fit.csv"),
                "--synthetic-fit", str(tmp_path / "fit.csv"),
                "--eval", str(tmp_path / "fit.csv"),
                "--epochs", "2",
                "--allow-overlap",
                "--report", str(tmp_path / "u.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "u.json").read_text())
        assert payload["absolute_gap"] == 0.0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0

    def test_demo_then_evaluate(self, tmp_path):
        rc = cli.main(
            ["demo", "--output-dir", str(tmp_path / "ws"), "--households", "40", "--days", "8", "--seed", "1"]
        )
        assert rc == 0
        rc = cli.main(
            [
                "evaluate",
                "--manifest", str(tmp_path / "ws" / "manifest.json"),
                "--output-dir", str(tmp_path / "ws" / "out"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "ws" / "out" / "report.json").read_text())
        assert payload["privacy"]["mia_plain"]["precision"] is not None
        assert payload["input_digests"]["train"]


# a valid value other than the default for every privacy and utility option but the file paths
NON_DEFAULT = {
    "recon": True, "recon_poisoned": True, "mia": True, "mia_poisoned": True,
    "policy": {"ratio": 0.3, "max_fraction": 0.5}, "sample_size": 7, "threshold_ratios": [0.3, 0.6],
    "tasks": ["classify"], "epochs": 3, "allow_overlap": True,
}


def test_option_table_matches_config_fields():
    """The fidelity and generator rows name exactly the config fields they
    fill, and every other privacy and utility option changes the plan."""
    assert set(report.OPTIONS["fidelity"][1]) == {f.name for f in fields(fidelity.FidelityConfig)} - {"seed"}
    assert set(report.OPTIONS["generator"][1]) == {f.name for f in fields(GeneratorMetadata)}
    files = {key: f"{key}.csv" for key in ("train", "holdout", "synthetic", "registry")}
    minimal = {"privacy": {"recon": False}, "utility": dict.fromkeys(report.UTILITY_FILES, "fit.csv")}
    ignored = []
    for section, options in minimal.items():
        for key in report.OPTIONS[section][1].keys() - report.UTILITY_FILES:
            # the policy is the poisoned reconstruction's verdict, so that attack must be on
            base = {**options, "recon_poisoned": True} if key == "policy" else options
            before = report.plan({**files, section: base}, 0)
            if report.plan({**files, section: {**base, key: NON_DEFAULT[key]}}, 0) == before:
                ignored.append(key)
    assert ignored == []


def test_readme_manifest_table_names_the_option_table():
    """README's manifest table names exactly the keys of ``report.OPTIONS``, section by section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named, section = {}, None
    for line in readme[readme.index("| section | key |"):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cell, keys = (text.strip() for text in line.split("|")[1:3])
        section = {"top level": "manifest"}.get(cell, cell.strip("`")) if cell else section
        named.setdefault(section, []).extend(re.findall(r"`(\w+)`", keys))
    assert {name: sorted(keys) for name, keys in named.items()} == {
        name: sorted(entries) for name, (_, entries) in report.OPTIONS.items()
    }


def test_readme_commands_parse():
    """Every ``synthmeter`` command in README's code blocks (``\\`` continuations joined, comments
    dropped) parses, so a removed or renamed flag cannot linger in README's examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("synthmeter "):
                commands.append(line)
    assert len(commands) >= 10
    parser = cli.build_parser()
    for command in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}\n{err.getvalue()}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(-10, 10) | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=4), values, max_size=3),
    max_leaves=4,
)
ENTRIES = [(section, key) for section, (_, entries) in report.OPTIONS.items() for key in entries]


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perturbed")


@settings(max_examples=150, deadline=None)
@given(entry=st.sampled_from(ENTRIES), typo=st.booleans(), data=st.data())
def test_perturbed_manifest_fails_before_any_file_is_read(manifest_dir, entry, typo, data):
    """A wrong JSON type for any key, or a typo of any key, raises an
    InvalidConfig naming that key before any profile file is read."""
    section, key = entry
    noun, entries = report.OPTIONS[section]
    accepts, _ = entries[key]
    if typo:
        key = data.draw(st.sampled_from([key + "s", key[:-1], key.replace("_", "")]).filter(
            lambda k: k not in entries), label="typo")
        value = data.draw(JSON_VALUES, label="value")
    else:
        value = data.draw(JSON_VALUES.filter(lambda v: not accepts(v)), label="value")
    options = {key: value}
    manifest = write_manifest(manifest_dir, options if section == "manifest" else {section: options})

    with pytest.MonkeyPatch.context() as patch:
        forbid_reads(patch)
        with pytest.raises(InvalidConfig, match=re.escape(f"{noun} {key!r}")):
            report.run_full_evaluation(manifest, output_dir=manifest_dir / "out")
    assert not (manifest_dir / "out").exists()


@pytest.fixture(scope="module")
def demo_evaluation(tmp_path_factory):
    """A small demo workspace and its ``evaluate`` report, as written to disk."""
    base = tmp_path_factory.mktemp("demo_eval")
    manifest = cli.build_demo_workspace(base / "ws", households=40, days=8, seed=1)
    outcome = report.run_full_evaluation(manifest, output_dir=base / "out")
    assert outcome.ok
    return base / "ws", json.loads(outcome.report_path.read_text())


def counted_reads(monkeypatch) -> list[str]:
    """The name of each file ``report`` reads, one entry per ``read_wide`` call."""
    names = []

    def counting(path, *args, **kwargs):
        names.append(Path(path).name)
        return read_wide(path, *args, **kwargs)

    monkeypatch.setattr(report, "read_wide", counting)
    return names


# "privacy": true and every non-empty subset of the attacks
ATTACK_OPTIONS = [True] + [
    dict.fromkeys(attacks, True)
    for size in range(1, 5) for attacks in itertools.combinations(report.PRIVACY_ATTACKS, size)
]


@pytest.mark.parametrize("fidelity_on, utility_on", [(False, False), (True, False), (False, True), (True, True)])
def test_each_input_read_once_while_parts_read_it(demo_evaluation, tmp_path, monkeypatch, fidelity_on, utility_on):
    # the utility suite's fit and evaluation files are train, synthetic_fit and holdout
    # here, so train and holdout must outlive the fidelity and privacy suites that read them
    workspace, _ = demo_evaluation
    manifest = json.loads((workspace / "manifest.json").read_text())
    manifest["fidelity"] = {"clusters_k": 3} if fidelity_on else False
    manifest["utility"] = utility_on and {"real_fit": "train.csv", "synthetic_fit": "synthetic_fit.csv",
                                          "eval": "holdout.csv", "tasks": ["classify"], "epochs": 1,
                                          "allow_overlap": True}
    names = counted_reads(monkeypatch)
    for privacy in [False, *ATTACK_OPTIONS]:
        if not (fidelity_on or utility_on or privacy):
            continue
        manifest["privacy"] = privacy
        path = write_manifest(workspace, manifest, name="lifetime.json")
        names.clear()
        outcome = report.run_full_evaluation(path, output_dir=tmp_path / "out")
        assert outcome.ok, (privacy, outcome.failures)
        # a path no requested part reads was dropped too early if it was read again
        assert len(names) == len(set(names)), (privacy, names)


def test_privacy_inputs_freed_before_utility(demo_evaluation, tmp_path, monkeypatch):
    workspace, _ = demo_evaluation
    manifest = json.loads((workspace / "manifest.json").read_text())
    del manifest["fidelity"]
    manifest["utility"].update(tasks=["classify"], epochs=1)
    path = write_manifest(workspace, manifest, name="privacy_utility.json")
    refs, alive = {}, {}

    def weakly_held(path, *args, **kwargs):
        profiles = read_wide(path, *args, **kwargs)
        refs[Path(path).name] = weakref.ref(profiles)
        return profiles

    def utility_section(*args):
        alive.update({name: ref() is not None for name, ref in refs.items()})
        return section(*args)

    section = report.SECTIONS["utility"]
    monkeypatch.setattr(report, "read_wide", weakly_held)
    monkeypatch.setitem(report.SECTIONS, "utility", utility_section)
    outcome = report.run_full_evaluation(path, output_dir=tmp_path / "out")
    assert outcome.ok
    # train.csv is also the utility suite's real fit set; eval.csv is read inside it
    assert alive == {"train.csv": True, "holdout.csv": False, "synthetic.csv": False}


def test_failed_pca_table_keeps_the_fidelity_metrics(demo_evaluation, tmp_path, capsys):
    # one train.csv cell at MAX_KWH (1e+100) swamps the covariance: the PCA side table
    # fails, the five metrics stand and the run still exits 1
    workspace, evaluated = demo_evaluation
    run = tmp_path / "ws"
    shutil.copytree(workspace, run)
    header, first, *rows = (run / "train.csv").read_text().splitlines()
    cells = first.split(",")
    cells[3] = "1e+100"
    (run / "train.csv").write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
    rc = cli.main(["evaluate", "--manifest", str(run / "manifest.json"), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    error = "covariance has fewer than 2 positive eigenvalues"
    assert capsys.readouterr().err == f"FAILED fidelity pca_coordinates.csv: {error}\n"
    section = json.loads((tmp_path / "out" / "report.json").read_text())["fidelity"]
    assert section.pop("failed_side_files") == {"pca_coordinates.csv": error}
    assert section.keys() == evaluated["fidelity"].keys() and _finite(section)
    assert (tmp_path / "out" / "per_slot_statistics.csv").exists()
    assert not (tmp_path / "out" / "pca_coordinates.csv").exists()


@pytest.mark.parametrize(
    "command, entry",
    [
        (["privacy", "recon", "--train", "{train}", "--holdout", "{holdout}", "--synthetic", "{synthetic}"],
         ("privacy", "ks")),
        (["privacy", "recon-poisoned", "--registry", "{registry}", "--synthetic", "{synthetic}"],
         ("privacy", "reconstruction")),
        (["privacy", "mia", "--train", "{train}", "--holdout", "{holdout}", "--synthetic", "{synthetic}"],
         ("privacy", "mia_plain")),
        (["privacy", "mia-poisoned", "--registry", "{registry}", "--synthetic", "{synthetic}",
          "--holdout", "{holdout}"],
         ("privacy", "mia_poisoned")),
        (["utility", "tstr-classify", "--real-fit", "{train}", "--synthetic-fit", "{synthetic_fit}",
          "--eval", "{eval}", "--epochs", "20"],
         ("utility", 0)),
        (["utility", "tstr-forecast", "--kind", "mean", "--real-fit", "{train}",
          "--synthetic-fit", "{synthetic_fit}", "--eval", "{eval}", "--epochs", "20"],
         ("utility", 1)),
        (["utility", "tstr-forecast", "--kind", "q95", "--real-fit", "{train}",
          "--synthetic-fit", "{synthetic_fit}", "--eval", "{eval}", "--epochs", "20"],
         ("utility", 2)),
    ],
    ids=["recon", "recon_poisoned", "mia", "mia_poisoned", "tstr_classify", "tstr_mean", "tstr_q95"],
)
def test_subcommand_writes_its_evaluate_entry(demo_evaluation, tmp_path, command, entry):
    workspace, evaluated = demo_evaluation
    files = {name: workspace / f"{name}.csv"
             for name in ("train", "holdout", "synthetic", "registry", "synthetic_fit", "eval")}
    out = tmp_path / "entry.json"
    rc = cli.main([arg.format(**files) for arg in command] + ["--seed", "1", "--report", str(out)])
    assert rc == 0
    section, key = entry
    assert json.loads(out.read_text()) == evaluated[section][key]


# the hand-written encodings that report.entry replaced, kept as its oracles
def fidelity_encoding(result: fidelity.FidelityReport) -> dict:
    return {
        "acf_mmd": result.acf_mmd,
        "mean_deviation_sum": result.mean_deviation_sum,
        "quantile_deviation_sums": {str(q): v for q, v in result.quantile_deviation_sums.items()},
        "profile_mmd": result.profile_mmd,
        "peaks_mmd": result.peaks_mmd,
        "cluster_kl": result.cluster_kl,
        "aggregated": asdict(result.aggregated),
        "exclusion_counts": dict(result.exclusion_counts),
    }


def reconstruction_encoding(result: privacy.ReconstructionResult) -> dict:
    return {
        "fraction_reconstructed": {repr(r): v for r, v in result.fraction_reconstructed.items()},
        "per_outlier_nn_distance_ratio": [float(v) for v in result.per_outlier_nn_distance_ratio],
        "ks": None,
    }


def tstr_encoding(result: utility.TstrResult) -> dict:
    return {
        "metric_name": result.metric_name,
        "score_real_trained": result.score_real_trained,
        "score_synthetic_trained": result.score_synthetic_trained,
        "absolute_gap": result.absolute_gap,
        "epochs_trace": [[e, a, b] for e, a, b in result.epochs_trace],
    }


def test_entry_matches_the_hand_written_encodings(demo_evaluation):
    workspace, evaluated = demo_evaluation
    manifest = report.read_json(workspace / "manifest.json")
    suites = report.plan(manifest, manifest.get("seed", 0))
    read = report.reader(manifest, workspace)[0]
    (fidelity_config,) = suites["fidelity"]
    _, privacy_config, _ = suites["privacy"]
    tasks, train_config, _ = suites["utility"]

    @kernels.one_blas_thread  # as evaluate runs, so the results carry its bits
    def results():
        return (
            fidelity.evaluate_fidelity(*map(read, report.FILES["fidelity"]), fidelity_config),
            privacy.reconstruction_poisoned(*map(read, report.FILES["recon_poisoned"]), privacy_config),
            utility.tstr_classify(*map(read, report.UTILITY_FILES), train_config),
        )

    fid, recon, tstr = results()
    cases = [
        (report.entry(fid), fidelity_encoding(fid), evaluated["fidelity"]),
        # privacy_section adds the always-null "ks" key to the reconstruction entry
        (
            {**report.entry(recon), "ks": None},
            reconstruction_encoding(recon),
            evaluated["privacy"]["reconstruction"],
        ),
        (report.entry(tstr), tstr_encoding(tstr), evaluated["utility"][tasks.index("classify")]),
    ]
    for got, oracle, written in cases:
        assert got == oracle
        assert report.render_report(got) == report.render_report(oracle)
        assert json.loads(report.render_report(got)) == written


@dataclass
class _Inner:
    counts: dict
    values: np.ndarray


@dataclass
class _Outer:
    name: str
    inner: _Inner
    pairs: list
    hidden: object = field(default=None, repr=False)


def test_entry_encoding_rules():
    key = np.float64(0.5)
    assert report.entry({key: 1.0, 2: "two"}) == {"0.5": 1.0, "2": "two"}  # str, not repr(key)
    array = report.entry(np.array([[1.0, 2.5], [3.0, 4.0]]))
    assert array == [[1.0, 2.5], [3.0, 4.0]] and type(array[0][0]) is float
    encoded = report.entry(_Outer("x", _Inner({key: 2}, np.arange(3)), [(1, 0.5), (2, 0.25)], hidden=np.ones(2)))
    assert encoded == {"name": "x", "inner": {"counts": {"0.5": 2}, "values": [0, 1, 2]},
                       "pairs": [[1, 0.5], [2, 0.25]]}  # the repr=False field is left out
    assert all(type(pair) is list for pair in encoded["pairs"])
    assert report.entry((None, True, "s", 3)) == [None, True, "s", 3]


def test_mia_poisoned_prints_the_registry_chance_level(demo_evaluation, tmp_path, capsys):
    workspace, _ = demo_evaluation
    full = poisoning.read_registry(workspace / "registry.csv")
    registry = tmp_path / "registry.csv"
    write_registry(replace(full, seen_outliers=full.seen_outliers.subset(range(10))), registry)
    out = tmp_path / "entry.json"
    rc = cli.main(["privacy", "mia-poisoned", "--registry", str(registry),
                   "--synthetic", str(workspace / "synthetic.csv"), "--holdout", str(workspace / "holdout.csv"),
                   "--seed", "1", "--report", str(out)])
    assert rc == 0
    assert "(0.048 = random guess)" in capsys.readouterr().out  # 10 seen of 210 registry rows
    assert json.loads(out.read_text())["positive_fraction"] == 10 / 210


def test_bandwidth_whose_square_underflows_fails_fidelity(demo_evaluation, tmp_path, capsys, no_reads):
    # 1e-300 is positive and finite, but 2 sigma^2 underflows to 0, which would make every
    # MMD NaN; the fidelity config rejects it before any file is read or the output made
    workspace, _ = demo_evaluation
    manifest = write_manifest(tmp_path, {"train": str(workspace / "train.csv"),
                                         "synthetic": str(workspace / "synthetic.csv"),
                                         "fidelity": {"mmd_bandwidth": 1e-300, "clusters_k": 5}})
    rc = cli.main(["evaluate", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: 'mmd_bandwidth' must be 'median' or a positive number with a finite nonzero "
        "2 sigma^2, got 1e-300\n"
    )
    assert not (tmp_path / "out").exists()


# a fault written into one input file, and the cause its error must name
MATRIX_FAULTS = {
    "nan": "non-finite kWh",
    "inf": "non-finite kWh",
    "-inf": "non-finite kWh",
    "no_rows": "contains no profiles",
    "one_row": r"at least \d+ \w+|is empty",
    "above_max_kwh": "kWh magnitude above",
}
# the cell text of a fault that is not its own name: the next double above MAX_KWH (1e100)
CELL_TEXT = {"above_max_kwh": "1.0000000000000002e+100"}
MATRIX_FILES = ("train", "holdout", "synthetic", "registry", "synthetic_fit", "eval")
FILE_FAULTS = ("nan", "inf", "-inf", "no_rows", "above_max_kwh")


def _finite(value) -> bool:
    """Whether every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MATRIX_FILES), fault=st.sampled_from(list(MATRIX_FAULTS)), data=st.data())
def test_bad_matrix_fails_loudly_or_fails_its_sections(demo_evaluation, name, fault, data):
    """One input file with a NaN, infinite or above-``MAX_KWH`` cell, no rows or one
    row: either ``evaluate`` exits 2 with one error line naming the cause, or every
    section of the report is all-finite or failed with an error naming the cause, and
    the file too where the reader rejected it. NumPy overflow and invalid operations
    raise throughout."""
    workspace, _ = demo_evaluation
    header, *rows = (workspace / f"{name}.csv").read_text().splitlines()
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    if fault == "no_rows":
        rows = []
    elif fault == "one_row":
        rows = [rows[row]]
    else:
        cells = rows[row].split(",")
        cells[3 + data.draw(st.integers(0, len(cells) - 4), label="slot")] = CELL_TEXT.get(fault, fault)
        rows[row] = ",".join(cells)
    run = Path(tempfile.mkdtemp(dir=workspace.parent))
    (run / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n")

    def located(filename: str) -> str:
        return str((run if filename == f"{name}.csv" else workspace) / filename)

    manifest = json.loads((workspace / "manifest.json").read_text())
    for key in ("train", "holdout", "synthetic", "registry"):
        manifest[key] = located(manifest[key])
    utility = manifest["utility"]
    utility.update({key: located(utility[key]) for key in report.UTILITY_FILES}, epochs=2)
    path = write_manifest(run, manifest)

    err = io.StringIO()
    # an overflow or invalid operation on the way raises instead of passing as a silent inf or NaN
    with (
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(io.StringIO()),
        np.errstate(over="raise", invalid="raise"),
    ):
        rc = cli.main(["evaluate", "--manifest", str(path), "--output-dir", str(run / "out")])
    cause = re.compile(MATRIX_FAULTS[fault])
    # the reader rejects these faults, and its errors name the file
    bad_file = str(run / f"{name}.csv") if fault in FILE_FAULTS else ""
    if rc == 2:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ") and cause.search(line) and bad_file in line, line
        return
    evaluated = json.loads((run / "out" / "report.json").read_text())
    failed = False
    for suite in report.SUITES:
        section = evaluated[suite]
        if isinstance(section, dict) and section.get("status") == "failed":
            error = section["error"]
            assert cause.search(error) and bad_file in error, f"{suite}: {error}"
            failed = True
        else:
            assert _finite(section), f"{suite} holds a NaN or infinite number"
    assert rc == (1 if failed else 0)


@pytest.fixture(scope="module")
def trace_targets():
    """``perfbench/tracing.py``'s TARGETS, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_trace_targets_resolve(trace_targets):
    """Every (module, function) the benchmark tracer wraps exists, so a
    rename cannot silently break ``perfbench/run.py --trace 1``."""
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in trace_targets
        if not callable(getattr(importlib.import_module(f"synthmeter.{mod}"), fn, None))
    ]
    assert missing == []


def test_trace_counters_read_parameters(trace_targets):
    """Every ``args["name"]`` a tracer counter reads is a parameter of the
    function it counts, so a renamed parameter cannot crash a traced run."""
    unknown = []
    for mod, fn, _, counter in trace_targets:
        if counter is None:
            continue
        params = inspect.signature(getattr(importlib.import_module(f"synthmeter.{mod}"), fn)).parameters
        read = re.findall(r'args\["(\w+)"\]', inspect.getsource(counter))
        unknown += [f"{mod}.{fn}: {name}" for name in read if name not in params]
    assert unknown == []
