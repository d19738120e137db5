from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from synthmeter import cli, demo, fidelity, gmm, kernels, privacy, report
from synthmeter.errors import RatioNotComputed
from synthmeter.generators import MemorizerConfig, memorizer_generate
from synthmeter.poisoning import OutlierSpec, make_attack_registry, write_registry
from synthmeter.profiles import Horizon, Role, SplitSpec, read_wide, split_households, write_wide


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

    def test_missing_registry_fails_privacy_section(self, workspace, tmp_path):
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                "privacy": {"recon_poisoned": True},
            },
            name="broken.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert not outcome.ok
        assert outcome.report["privacy"]["status"] == "failed"

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

    @pytest.mark.parametrize(
        "section, options, message",
        [
            ("fidelity", {"mmd_bandwith": 1.0}, "unknown fidelity option 'mmd_bandwith'; did you mean 'mmd_bandwidth'"),
            ("privacy", {"recon": True, "sample_sise": 5}, "unknown privacy option 'sample_sise'; did you mean 'sample_size'"),
            ("utility", {"epcohs": 2}, "unknown utility option 'epcohs'; did you mean 'epochs'"),
            ("utility", {"tasks": ["clasify"]}, "unknown utility task 'clasify'; did you mean 'classify'"),
        ],
        ids=["fidelity_key", "privacy_key", "utility_key", "utility_task"],
    )
    def test_unknown_key_fails_its_section(self, workspace, tmp_path, section, options, message):
        files = {"real_fit": "train.csv", "synthetic_fit": "synthetic.csv", "eval": "holdout.csv"}
        manifest = write_manifest(
            workspace,
            {
                "horizon": "daily",
                "train": "train.csv",
                "holdout": "holdout.csv",
                "synthetic": "synthetic.csv",
                section: {**(files if section == "utility" else {}), **options},
            },
            name=f"typo_{section}.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        assert outcome.failures == [f"{section}: {outcome.report[section]['error']}"]
        assert outcome.report[section]["status"] == "failed"
        assert outcome.report[section]["error"].startswith(message)

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
                "utility": {"real_fit": "train.csv", "synthetic_fit": "synthetic.csv",
                            "eval": "missing.csv", "allow_overlap": True},
            },
            name="repeated.json",
        )
        outcome = report.run_full_evaluation(manifest, output_dir=tmp_path / "out")
        # train.csv is the TRAIN set twice and synthetic.csv the SYNTHETIC set twice
        assert calls["read_wide"] == ["train.csv", "holdout.csv", "synthetic.csv", "missing.csv"]
        assert calls["file_digest"] == ["train.csv", "holdout.csv", "synthetic.csv"]
        digests = outcome.report["input_digests"]
        assert digests["utility_real_fit"] == digests["train"]
        assert digests["utility_synthetic_fit"] == digests["synthetic"]
        # the unreadable utility file fails only its own section
        assert outcome.report["utility"]["status"] == "failed"
        assert "statistic" in outcome.report["privacy"]["ks"]


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
        train = read_wide(tmp_path / "train.csv", Role.TRAIN)
        holdout = read_wide(tmp_path / "holdout.csv", Role.HOLDOUT)
        assert set(train.household_ids).isdisjoint(holdout.household_ids)

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
        assert "reconstructed at ratio 0.3" in capsys.readouterr().out

    @pytest.mark.parametrize("ratios", ["0.1:0.5", "0.1:0.5:0", "0:1:0.1"], ids=["two_parts", "zero_step", "zero_start"])
    def test_recon_poisoned_bad_ratios_exit_2(self, workspace, tmp_path, capsys, ratios):
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
        assert err.startswith("error: ") and err.count("\n") == 1
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
        real = read_wide(tmp_path / "real.csv", Role.TRAIN)
        synthetic = read_wide(tmp_path / "synthetic.csv", Role.SYNTHETIC, horizon=real.horizon)
        fixed, median = (
            fidelity.evaluate_fidelity(
                real, synthetic, fidelity.FidelityConfig(clusters_k=4, mmd_bandwidth=bandwidth, seed=0)
            ).as_dict()
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
            {"clusters_k": "four"},
            {"kl_smoothing": -1.0},
            {"mmd_bandwith": 1.0},
        ],
        ids=[
            "peaks_n_0", "bandwidth_typo", "bandwidth_negative", "clusters_k_text",
            "kl_smoothing_negative", "unknown_key",
        ],
    )
    def test_fidelity_config_error_exits_2(self, tmp_path, capsys, options):
        write_wide(demo.make_population(20, 6, seed=8), tmp_path / "real.csv")
        config = tmp_path / "fid.json"
        config.write_text(json.dumps(options))
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
        assert not (tmp_path / "fidelity.json").exists()

    @pytest.mark.parametrize(
        "kind, extra",
        [("gmm", ["--k", "0"]), ("gmm", ["--n", "0"]), ("memorizer", ["--n", "0"])],
        ids=["gmm_k_0", "gmm_n_0", "memorizer_n_0"],
    )
    def test_generate_config_error_exits_2(self, tmp_path, capsys, monkeypatch, kind, extra):
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
        assert not fits  # rejected before any mixture fit
        assert not (tmp_path / "synthetic.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["split", "--input", "{real}", "--holdout-fraction", "1.5",
             "--train-out", "{out}", "--holdout-out", "{out2}"],
            ["inject-outliers", "--train", "{real}", "--count", "0",
             "--poisoned-out", "{out}", "--registry-out", "{out2}"],
            ["inject-outliers", "--train", "{real}", "--sigma", "-1",
             "--poisoned-out", "{out}", "--registry-out", "{out2}"],
        ],
        ids=["split_fraction_1.5", "inject_count_0", "inject_sigma_negative"],
    )
    def test_spec_error_exits_2(self, tmp_path, capsys, command):
        write_wide(demo.make_population(20, 6, seed=8), tmp_path / "real.csv")
        paths = {"real": tmp_path / "real.csv", "out": tmp_path / "a.csv", "out2": tmp_path / "b.csv"}
        rc = cli.main([arg.format(**paths) for arg in command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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

    def test_utility_zero_epochs_exits_2(self, tmp_path, capsys):
        fit = demo.make_population(20, 8, seed=3, day_step=36)
        write_wide(fit, tmp_path / "fit.csv")
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

    def test_evaluate_literal_demo_manifest(self, tmp_path, monkeypatch):
        original = cli.build_demo_workspace

        def small_demo(target, households=250, days=20, seed=0):
            return original(target, households=40, days=8, seed=seed)

        monkeypatch.setattr(cli, "build_demo_workspace", small_demo)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["--output-dir", str(tmp_path / "bundle"), "evaluate", "--manifest", "demo"])
        assert rc == 0
        assert list((tmp_path / "bundle").rglob("report.json"))


@pytest.fixture(scope="module")
def demo_evaluation(tmp_path_factory):
    """A small demo workspace and its ``evaluate`` report, as written to disk."""
    base = tmp_path_factory.mktemp("demo_eval")
    manifest = cli.build_demo_workspace(base / "ws", households=40, days=8, seed=1)
    outcome = report.run_full_evaluation(manifest, output_dir=base / "out")
    assert outcome.ok
    return base / "ws", json.loads(outcome.report_path.read_text())


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


def test_trace_targets_resolve():
    """Every (module, function) the benchmark tracer wraps exists, so a
    rename cannot silently break ``perfbench/run.py --trace 1``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"synthmeter.{mod}"), fn, None))
    ]
    assert missing == []
