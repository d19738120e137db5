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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, fidelity, kernels, nnet, privacy, utility
from .errors import RatioNotComputed, SynthmeterError, check_known
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
        return asdict(self)


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


def write_table(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    # np.float64 is a float whose repr reads np.float64(...), which CSV readers cannot parse
    if isinstance(value, (float, np.floating)):
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


def _fidelity_section(options, seed, train, synthetic):
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

    projection = kernels.pca_project(train, [train, synthetic])
    pca_rows = []
    for name, coords in zip(("real", "synthetic"), projection.projections):
        pca_rows.extend([name, xy[0], xy[1]] for xy in coords)
    tables = {
        "per_slot_statistics.csv": (header, rows),
        "pca_coordinates.csv": (["set", "x", "y"], pca_rows),
    }
    return result.as_dict(), tables


PRIVACY_ATTACKS = ("recon", "recon_poisoned", "mia", "mia_poisoned")
PRIVACY_KEYS = (*PRIVACY_ATTACKS, "policy", "sample_size", "threshold_ratios")
UTILITY_FILES = ("real_fit", "synthetic_fit", "eval")
UTILITY_KEYS = (*UTILITY_FILES, "tasks", "epochs", "allow_overlap")
MANIFEST_KEYS = (
    "horizon", "seed", "train", "holdout", "synthetic", "registry", "generator",
    "fidelity", "privacy", "utility",
)


def privacy_section(options: dict, seed: int, train, holdout, synthetic, registry):
    """Run the attacks ``options`` switches on; the others read ``not_run``.

    Returns the section and its side tables (the reconstruction curve).
    ``registry`` may be None when no poisoned attack is on.
    """
    check_known("privacy option", options, PRIVACY_KEYS)
    out = {key: dict(NOT_RUN) for key in ("ks", "reconstruction", "mia_plain", "mia_poisoned")}
    tables = {}

    if options.get("recon"):
        ks = privacy.reconstruction_ks(
            train, holdout, synthetic,
            sample_size=options.get("sample_size"), seed=seed,
        )
        out["ks"] = ks.as_dict()

    if options.get("recon_poisoned"):
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
        fractions = recon.fraction_reconstructed
        tables["reconstruction_cdf.csv"] = (
            ["ratio", "fraction"], [(r, fractions[r]) for r in sorted(fractions)]
        )
        policy = options.get("policy")
        if policy:
            verdict = threshold_policy_check(
                recon, float(policy["ratio"]), float(policy["max_fraction"])
            )
            out["policy_verdict"] = verdict.as_dict()

    if options.get("mia"):
        out["mia_plain"] = privacy.mia_plain(train, holdout, synthetic, seed=seed).as_dict()

    if options.get("mia_poisoned"):
        out["mia_poisoned"] = privacy.mia_poisoned(registry, synthetic, holdout, seed=seed).as_dict()
    return out, tables


def utility_section(options: dict, seed: int, real_fit, synthetic_fit, real_eval):
    """Run the TSTR tasks ``options`` names (all by default), in order.

    Returns the list of task results and their epoch traces as side tables.
    """
    check_known("utility option", options, UTILITY_KEYS)
    tasks = options.get("tasks", list(utility.TASKS))
    check_known("utility task", tasks, utility.TASKS)
    overlap = {d.year for d in real_fit.start_dates} & {d.year for d in real_eval.start_dates}
    if overlap and not options.get("allow_overlap", False):
        raise SynthmeterError(
            f"evaluation years {sorted(overlap)} overlap the fit period; "
            "set allow_overlap (--allow-overlap on the command line) to override"
        )

    epochs = int(options.get("epochs", 50))
    results, tables = [], {}
    for name in tasks:
        task = utility.TASKS[name]
        config = nnet.TrainConfig(loss=task.loss, epochs=epochs, seed=seed)
        # the public entry, looked up on the module so a tracer wrapping it sees the call
        result = getattr(utility, f"tstr_{name}")(real_fit, synthetic_fit, real_eval, config)
        tables[f"tstr_{name}_trace.csv"] = (list(task.trace_header), result.epochs_trace)
        results.append(result.as_dict())
    return results, tables


def run_full_evaluation(manifest_path, output_dir=None, seed: int | None = None) -> EvaluationOutcome:
    """Execute the suites a manifest requests and write report plus side files.

    The report body is a pure function of (inputs, manifest, seeds); the
    timestamp is the only varying field.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    check_known("manifest key", manifest, MANIFEST_KEYS)
    base = manifest_path.parent
    output_dir = Path(output_dir) if output_dir else base / "evaluation"
    output_dir.mkdir(parents=True, exist_ok=True)

    horizon = Horizon.from_name(manifest.get("horizon", "daily"))
    if seed is None:
        seed = int(manifest.get("seed", 0))

    digests: dict[str, str] = {}
    side_files: list[Path] = []
    failures: list[str] = []
    loaded: dict = {}

    def load(digest_key: str, name: str, role: Role):
        """Read and hash a manifest file once per (path, role), however
        many manifest keys name it; each key still gets its digest."""
        path = _resolve(base, name)
        if (path, role) not in loaded:
            loaded[path, role] = (read_wide(path, role, horizon=horizon), file_digest(path))
        profiles, digests[digest_key] = loaded[path, role]
        return profiles

    train = holdout = synthetic = None
    needs_core = any(manifest.get(k) for k in ("fidelity", "privacy"))
    if needs_core:
        for key in ("train", "holdout", "synthetic"):
            if key not in manifest:
                raise SynthmeterError(f"manifest requires the {key!r} file for fidelity/privacy")
        train = load("train", manifest["train"], Role.TRAIN)
        holdout = load("holdout", manifest["holdout"], Role.HOLDOUT)
        synthetic = load("synthetic", manifest["synthetic"], Role.SYNTHETIC)
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

    def options_of(name: str) -> dict:
        section = manifest.get(name)
        return dict(section) if isinstance(section, dict) else {}

    def run_fidelity():
        return _fidelity_section(options_of("fidelity"), seed, train, synthetic)

    def run_privacy():
        # ``"privacy": true`` runs every attack
        if manifest["privacy"] is True:
            options = dict.fromkeys(PRIVACY_ATTACKS, True)
        else:
            options = options_of("privacy")
        registry = None
        if options.get("recon_poisoned") or options.get("mia_poisoned"):
            if manifest.get("registry") is None:
                raise SynthmeterError("poisoned attacks require a registry file in the manifest")
            registry = read_registry(_resolve(base, manifest["registry"]), horizon=horizon)
        return privacy_section(options, seed, train, holdout, synthetic, registry)

    def run_utility():
        options = options_of("utility")
        for key in UTILITY_FILES:
            if key not in options:
                raise SynthmeterError(f"utility section requires the {key!r} file")
        real_fit = load("utility_real_fit", options["real_fit"], Role.TRAIN)
        synthetic_fit = load("utility_synthetic_fit", options["synthetic_fit"], Role.SYNTHETIC)
        real_eval = load("utility_eval", options["eval"], Role.HOLDOUT)
        return utility_section(options, seed, real_fit, synthetic_fit, real_eval)

    for name, run in (("fidelity", run_fidelity), ("privacy", run_privacy), ("utility", run_utility)):
        if not manifest.get(name):
            report[name] = dict(NOT_RUN)
            continue
        try:
            report[name], tables = run()
            for filename, (header, rows) in tables.items():
                write_table(output_dir / filename, header, rows)
                side_files.append(output_dir / filename)
        except Exception as exc:  # noqa: BLE001 - suite failures become report entries
            failures.append(f"{name}: {exc}")
            report[name] = {"status": "failed", "error": str(exc)}

    report_path = output_dir / "report.json"
    with open(report_path, "w") as fh:
        fh.write(render_report(report))
    return EvaluationOutcome(
        report=report, report_path=report_path, side_files=side_files, failures=failures
    )
