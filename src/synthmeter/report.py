"""Unified evaluation report and manifest-driven orchestration.

A single JSON manifest names the input files and switches the suites on
or off; the report echoes the resolved configuration, content-hashes of
every input and all results, so every number is attributable to exact
datasets and reproducible from (inputs, config, seeds). Sections that
were not requested are marked "not_run" rather than omitted; sections
that raised are marked "failed" with the error, and the run exits
non-zero.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, fidelity, kernels, nnet, privacy, utility
from .errors import RatioNotComputed, SynthmeterError
from .generators import GeneratorMetadata
from .poisoning import read_registry
from .profiles import Horizon, Role, read_wide

NOT_RUN = {"status": "not_run"}


@dataclass
class PolicyVerdict:
    policy_ratio: float
    max_fraction: float
    fraction_at_ratio: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "policy_ratio": self.policy_ratio,
            "max_fraction": self.max_fraction,
            "fraction_at_ratio": self.fraction_at_ratio,
            "passed": self.passed,
        }


def threshold_policy_check(
    result: privacy.ReconstructionResult, policy_ratio: float, max_fraction: float
) -> PolicyVerdict:
    """Stakeholder sign-off verdict: reconstruction fraction at the policy
    ratio must not exceed the agreed maximum."""
    fractions = result.fraction_reconstructed
    match = [r for r in fractions if abs(r - policy_ratio) < 1e-12]
    if not match:
        raise RatioNotComputed(f"ratio {policy_ratio} not among computed ratios")
    fraction = fractions[match[0]]
    return PolicyVerdict(
        policy_ratio=policy_ratio,
        max_fraction=max_fraction,
        fraction_at_ratio=fraction,
        passed=fraction <= max_fraction,
    )


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_reconstruction_curve(result: privacy.ReconstructionResult, path) -> None:
    """The ratio,fraction table of a reconstruction curve, by ascending ratio."""
    fractions = result.fraction_reconstructed
    _write_table(path, ["ratio", "fraction"], [(r, fractions[r]) for r in sorted(fractions)])


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj)!r}")


def render_report(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True, default=_json_default) + "\n"


@dataclass
class EvaluationOutcome:
    report: dict
    report_path: Path
    side_files: list[Path]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _fidelity_section(manifest, train, synthetic, seed, output_dir, side_files):
    section = manifest.get("fidelity")
    options = dict(section) if isinstance(section, dict) else {}
    config = fidelity.FidelityConfig.from_options(options, seed)
    result = fidelity.evaluate_fidelity(train, synthetic, config)

    quantiles = list(config.quantiles)
    stats_real, stats_syn = result.slot_statistics
    header = ["slot", "real_mean", "synthetic_mean"]
    for q in quantiles:
        header += [f"real_q{q}", f"synthetic_q{q}"]
    rows = []
    for slot in range(train.horizon.length):
        row = [slot, stats_real[0, slot], stats_syn[0, slot]]
        for i in range(len(quantiles)):
            row += [stats_real[1 + i, slot], stats_syn[1 + i, slot]]
        rows.append(row)
    stats_path = output_dir / "per_slot_statistics.csv"
    _write_table(stats_path, header, rows)
    side_files.append(stats_path)

    projection = kernels.pca_project(train, [train, synthetic])
    pca_path = output_dir / "pca_coordinates.csv"
    pca_rows = []
    for name, coords in zip(("real", "synthetic"), projection.projections):
        pca_rows.extend([name, xy[0], xy[1]] for xy in coords)
    _write_table(pca_path, ["set", "x", "y"], pca_rows)
    side_files.append(pca_path)
    return result.as_dict()


def _privacy_section(manifest, base, train, holdout, synthetic, horizon, seed, output_dir, side_files):
    section = manifest.get("privacy")
    options = dict(section) if isinstance(section, dict) else {}
    run_all = section is True
    out: dict = {}

    if run_all or options.get("recon", False):
        ks = privacy.reconstruction_ks(
            train, holdout, synthetic,
            sample_size=options.get("sample_size"), seed=seed,
        )
        out["ks"] = {"statistic": ks.statistic, "p_value": ks.p_value, "m": ks.m, "n": ks.n}
    else:
        out["ks"] = dict(NOT_RUN)

    wants_poisoned = run_all or options.get("recon_poisoned", False) or options.get("mia_poisoned", False)
    registry = None
    if wants_poisoned:
        registry_path = manifest.get("registry")
        if registry_path is None:
            raise SynthmeterError("poisoned attacks require a registry file in the manifest")
        registry = read_registry(_resolve(base, registry_path), horizon=horizon)

    if run_all or options.get("recon_poisoned", False):
        ratios = options.get("threshold_ratios")
        config = privacy.ReconstructionConfig(
            threshold_ratios=tuple(float(r) for r in ratios)
            if ratios
            else privacy.default_threshold_ratios(),
            synthetic_sample_size=options.get("sample_size"),
            seed=seed,
        )
        recon = privacy.reconstruction_poisoned(registry, synthetic, config)
        out["reconstruction"] = recon.as_dict()
        curve_path = output_dir / "reconstruction_cdf.csv"
        write_reconstruction_curve(recon, curve_path)
        side_files.append(curve_path)
        policy = options.get("policy")
        if policy:
            verdict = threshold_policy_check(
                recon, float(policy["ratio"]), float(policy["max_fraction"])
            )
            out["policy_verdict"] = verdict.as_dict()
    else:
        out["reconstruction"] = dict(NOT_RUN)

    if run_all or options.get("mia", False):
        out["mia_plain"] = privacy.mia_plain(train, holdout, synthetic, seed=seed).as_dict()
    else:
        out["mia_plain"] = dict(NOT_RUN)

    if run_all or options.get("mia_poisoned", False):
        out["mia_poisoned"] = privacy.mia_poisoned(registry, synthetic, holdout, seed=seed).as_dict()
    else:
        out["mia_poisoned"] = dict(NOT_RUN)
    return out


def _utility_section(manifest, base, horizon, seed, output_dir, side_files, digests):
    section = manifest.get("utility")
    options = dict(section) if isinstance(section, dict) else {}
    for key in ("real_fit", "synthetic_fit", "eval"):
        if key not in options:
            raise SynthmeterError(f"utility section requires the {key!r} file")
    real_fit = read_wide(_resolve(base, options["real_fit"]), Role.TRAIN, horizon=horizon)
    synthetic_fit = read_wide(_resolve(base, options["synthetic_fit"]), Role.SYNTHETIC, horizon=horizon)
    real_eval = read_wide(_resolve(base, options["eval"]), Role.HOLDOUT, horizon=horizon)
    for key in ("real_fit", "synthetic_fit", "eval"):
        digests[f"utility_{key}"] = file_digest(_resolve(base, options[key]))

    fit_years = {d.year for d in real_fit.start_dates}
    eval_years = {d.year for d in real_eval.start_dates}
    if fit_years & eval_years and not options.get("allow_overlap", False):
        raise SynthmeterError(
            f"evaluation years {sorted(fit_years & eval_years)} overlap the fit period; "
            "set allow_overlap to override"
        )

    tasks = options.get("tasks", ["classify", "forecast_mean", "forecast_quantile"])
    epochs = int(options.get("epochs", 50))
    results = []
    for task in tasks:
        if task == "classify":
            config = nnet.TrainConfig(loss=nnet.BCE, epochs=epochs, seed=seed)
            result = utility.tstr_classify(real_fit, synthetic_fit, real_eval, config)
        elif task == "forecast_mean":
            config = nnet.TrainConfig(loss=nnet.MSE, epochs=epochs, seed=seed)
            result = utility.tstr_forecast_mean(real_fit, synthetic_fit, real_eval, config)
        elif task == "forecast_quantile":
            config = nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95, epochs=epochs, seed=seed)
            result = utility.tstr_forecast_quantile(real_fit, synthetic_fit, real_eval, config)
        else:
            raise SynthmeterError(f"unknown utility task {task!r}")
        trace_path = output_dir / f"tstr_{task}_trace.csv"
        trace_header = (
            ["epoch", "acc_real", "acc_synthetic"]
            if task == "classify"
            else ["epoch", "score_real", "score_synthetic"]
        )
        _write_table(trace_path, trace_header, result.epochs_trace)
        side_files.append(trace_path)
        results.append(result.as_dict())
    return results


def run_full_evaluation(manifest_path, output_dir=None, seed: int | None = None) -> EvaluationOutcome:
    """Execute the suites a manifest requests and write report plus side files.

    The report body is a pure function of (inputs, manifest, seeds); the
    timestamp is the only varying field.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = manifest_path.parent
    output_dir = Path(output_dir) if output_dir else base / "evaluation"
    output_dir.mkdir(parents=True, exist_ok=True)

    horizon = Horizon.from_name(manifest.get("horizon", "daily"))
    if seed is None:
        seed = int(manifest.get("seed", 0))

    digests: dict[str, str] = {}
    side_files: list[Path] = []
    failures: list[str] = []

    train = holdout = synthetic = None
    needs_core = any(manifest.get(k) for k in ("fidelity", "privacy"))
    if needs_core:
        for key in ("train", "holdout", "synthetic"):
            if key not in manifest:
                raise SynthmeterError(f"manifest requires the {key!r} file for fidelity/privacy")
        train = read_wide(_resolve(base, manifest["train"]), Role.TRAIN, horizon=horizon)
        holdout = read_wide(_resolve(base, manifest["holdout"]), Role.HOLDOUT, horizon=horizon)
        synthetic = read_wide(_resolve(base, manifest["synthetic"]), Role.SYNTHETIC, horizon=horizon)
        for key in ("train", "holdout", "synthetic"):
            digests[key] = file_digest(_resolve(base, manifest[key]))
    if manifest.get("registry"):
        digests["registry"] = file_digest(_resolve(base, manifest["registry"]))

    generator_meta = None
    if manifest.get("generator"):
        raw = manifest["generator"]
        generator_meta = GeneratorMetadata(
            name=raw.get("name", "external"),
            kind=raw.get("kind", "external"),
            claimed_epsilon=raw.get("claimed_epsilon"),
            claimed_delta=raw.get("claimed_delta"),
            notes=raw.get("notes", ""),
        )

    report: dict = {
        "toolkit_version": __version__,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
        "input_digests": digests,
        "generator_metadata": None if generator_meta is None else generator_meta.as_dict(),
        "config_echo": manifest,
        "seeds": {"global": seed},
    }

    if manifest.get("fidelity"):
        try:
            report["fidelity"] = _fidelity_section(
                manifest, train, synthetic, seed, output_dir, side_files
            )
        except Exception as exc:  # noqa: BLE001 - suite failures become report entries
            failures.append(f"fidelity: {exc}")
            report["fidelity"] = {"status": "failed", "error": str(exc)}
    else:
        report["fidelity"] = dict(NOT_RUN)

    if manifest.get("privacy"):
        try:
            report["privacy"] = _privacy_section(
                manifest, base, train, holdout, synthetic, horizon, seed, output_dir, side_files
            )
        except Exception as exc:  # noqa: BLE001
            failures.append(f"privacy: {exc}")
            report["privacy"] = {"status": "failed", "error": str(exc)}
    else:
        report["privacy"] = dict(NOT_RUN)

    if manifest.get("utility"):
        try:
            report["utility"] = _utility_section(
                manifest, base, horizon, seed, output_dir, side_files, digests
            )
        except Exception as exc:  # noqa: BLE001
            failures.append(f"utility: {exc}")
            report["utility"] = {"status": "failed", "error": str(exc)}
    else:
        report["utility"] = dict(NOT_RUN)

    report_path = output_dir / "report.json"
    with open(report_path, "w") as fh:
        fh.write(render_report(report))
    return EvaluationOutcome(
        report=report, report_path=report_path, side_files=side_files, failures=failures
    )
