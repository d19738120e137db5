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
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, fidelity, kernels, nnet, privacy, utility
from .errors import InvalidConfig, RatioNotComputed, SynthmeterError, check_known, check_value
from .generators import GeneratorMetadata
from .poisoning import read_registry
from .profiles import Horizon, read_wide

NOT_RUN = {"status": "not_run"}


@dataclass
class PolicyVerdict:
    policy_ratio: float
    max_fraction: float
    fraction_at_ratio: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _grid_ratio(ratios, policy_ratio: float) -> float:
    """The threshold ratio equal to ``policy_ratio``; RatioNotComputed if there is none."""
    match = [r for r in ratios if abs(r - policy_ratio) < 1e-12]
    if not match:
        raise RatioNotComputed(f"policy ratio {policy_ratio} is not among the threshold ratios")
    return match[0]


def threshold_policy_check(
    result: privacy.ReconstructionResult, policy_ratio: float, max_fraction: float
) -> PolicyVerdict:
    """Stakeholder sign-off verdict: reconstruction fraction at the policy
    ratio must not exceed the agreed maximum."""
    fraction = result.fraction_reconstructed[_grid_ratio(result.fraction_reconstructed, policy_ratio)]
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


def render_report(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def read_json(path):
    """Parse a manifest or config file; malformed JSON, NaN and the infinities raise InvalidConfig."""
    def reject(constant):
        raise InvalidConfig(f"{path} is not valid JSON: {constant} is no JSON number")

    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"{path} is not valid JSON: {exc}") from None


@dataclass
class EvaluationOutcome:
    report: dict
    report_path: Path
    side_files: list[Path]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def fidelity_section(config: fidelity.FidelityConfig, read):
    """Run the fidelity metrics on the files ``read`` gives (see ``reader``); returns
    the section and its side tables (per-slot statistics and PCA coordinates), each a
    (header, rows) pair, or for a PCA that failed its error."""
    train, synthetic = map(read, FILES["fidelity"])
    result = fidelity.evaluate_fidelity(train, synthetic, config)

    header = ["slot", "real_mean", "synthetic_mean"]
    for q in config.quantiles:
        header += [f"real_q{q}", f"synthetic_q{q}"]
    # a row per slot: each statistic's real value, then its synthetic value
    columns = np.stack(result.slot_statistics, axis=1).reshape(-1, train.horizon.length)
    rows = [[slot, *values] for slot, values in enumerate(columns.T)]

    try:
        projection = kernels.pca_project(train, [train, synthetic])
    except SynthmeterError as exc:  # a rank-deficient projection costs only its own table
        pca = exc
    else:
        pca_rows = []
        for name, coords in zip(("real", "synthetic"), projection.projections):
            pca_rows.extend([name, xy[0], xy[1]] for xy in coords)
        pca = (["set", "x", "y"], pca_rows)
    return result.as_dict(), {"per_slot_statistics.csv": (header, rows), "pca_coordinates.csv": pca}


PRIVACY_ATTACKS = ("recon", "recon_poisoned", "mia", "mia_poisoned")
UTILITY_FILES = ("real_fit", "synthetic_fit", "eval")
SUITES = ("fidelity", "privacy", "utility")

# the file keys each part of a suite reads, in its function's order (utility's are section keys)
FILES = {
    "fidelity": ("train", "synthetic"),
    "recon": ("train", "holdout", "synthetic"),
    "recon_poisoned": ("registry", "synthetic"),
    "mia": ("train", "holdout", "synthetic"),
    "mia_poisoned": ("registry", "synthetic", "holdout"),
    "utility": UTILITY_FILES,
}


def _is(value, *types) -> bool:
    """isinstance for a JSON value, where a boolean is no int or float."""
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _list_of(*types, empty: bool = True):
    return lambda v: _is(v, list) and (empty or len(v) > 0) and all(_is(x, *types) for x in v)


_NUMBER, _NULL = (int, float), type(None)
# annotation type -> (the JSON value types it accepts, what its errors call one)
_JSON = {int: ((int,), "an integer"), float: (_NUMBER, "a number"), str: ((str,), "a string"),
         bool: ((bool,), "true or false"), _NULL: ((_NULL,), "null")}


def _accepts(hint) -> tuple:
    """The (accepts its JSON value, expected) pair of a _JSON type, a union of them or a
    ``tuple[T, ...]``, which a JSON list fills."""
    if typing.get_origin(hint) is tuple:
        types, noun = _JSON[typing.get_args(hint)[0]]
        return _list_of(*types), f"a list of {noun.split()[-1]}s"
    union = typing.get_args(hint) or (hint,)
    return (lambda v: any(_is(v, *_JSON[arg][0]) for arg in union)), " or ".join(_JSON[arg][1] for arg in union)


def _typed(config, *keys) -> dict:
    """``_accepts`` of the annotations of the dataclass ``config``'s fields ``keys`` (all but ``seed``)."""
    hints = typing.get_type_hints(config)
    return {key: _accepts(hints[key]) for key in keys or [key for key in hints if key != "seed"]}


_SWITCH, _TEXT = _accepts(bool), _accepts(str)

# section -> (the noun its errors use, {key: (accepts its JSON value, expected)});
# JSON types are checked, not coerced: true is an int and the string "no" is truthy;
# a key that a config class holds is typed by its field's annotation, the others here
OPTIONS = {
    "manifest": ("manifest key", {
        "horizon": _TEXT,
        "seed": (lambda v: _is(v, int) and v >= 0, "a non-negative integer"),
        **dict.fromkeys(("train", "holdout", "synthetic", "registry"), _TEXT),
        "generator": (lambda v: _is(v, dict), "an object"),
        **dict.fromkeys(SUITES, (lambda v: _is(v, dict, bool, _NULL), "an object, true, false or null")),
    }),
    "generator": ("generator key", _typed(GeneratorMetadata)),
    "fidelity": ("fidelity option", _typed(fidelity.FidelityConfig)),
    "privacy": ("privacy option", {
        **dict.fromkeys(PRIVACY_ATTACKS, _SWITCH),
        "policy": (lambda v: _is(v, dict) and all(_is(v.get(k), *_NUMBER) for k in ("ratio", "max_fraction")),
                   "an object with numeric ratio and max_fraction"),
        **_typed(privacy.ReconstructionConfig),
    }),
    "utility": ("utility option", {
        **dict.fromkeys(UTILITY_FILES, _TEXT),
        "tasks": (_list_of(str, empty=False), "a non-empty list of strings"),
        **_typed(nnet.TrainConfig, "epochs"),
        "allow_overlap": _SWITCH,
    }),
}


def check_options(section: str, options) -> None:
    """Reject a manifest section or ``fidelity --config`` file that is no JSON object,
    names an unknown key or task, repeats a task, or gives a key a value of the wrong JSON type."""
    noun, entries = OPTIONS[section]
    if not isinstance(options, dict):
        raise InvalidConfig(f"{noun}s must be given as a JSON object, got {options!r}")
    check_known(noun, options, entries)
    for key, value in options.items():
        accepts, expected = entries[key]
        if not accepts(value):
            raise InvalidConfig(f"{noun} {key!r} must be {expected}, got {value!r}")
    if section == "utility":
        tasks = options.get("tasks", ())
        check_known("utility task", tasks, utility.TASKS)
        check_value("tasks", tasks, len(set(tasks)) == len(tasks), "distinct")


def privacy_section(attacks, config: privacy.ReconstructionConfig, policy, read):
    """Run ``attacks`` (of PRIVACY_ATTACKS) on their FILES, read before the first runs,
    with ``config``'s seed and sample size; the others read ``not_run``. ``policy`` is
    None or the (ratio, max_fraction) pair the poisoned reconstruction's verdict checks.

    Returns the section and its side tables (the reconstruction curve).
    """
    files = {key: read(key) for key in dict.fromkeys(key for attack in attacks for key in FILES[attack])}
    inputs = {attack: [files[key] for key in FILES[attack]] for attack in attacks}
    out = {key: dict(NOT_RUN) for key in ("ks", "reconstruction", "mia_plain", "mia_poisoned")}
    tables = {}

    if "recon" in attacks:
        ks = privacy.reconstruction_ks(*inputs["recon"], sample_size=config.sample_size, seed=config.seed)
        out["ks"] = ks.as_dict()

    if "recon_poisoned" in attacks:
        recon = privacy.reconstruction_poisoned(*inputs["recon_poisoned"], config)
        out["reconstruction"] = recon.as_dict()
        fractions = recon.fraction_reconstructed
        tables["reconstruction_cdf.csv"] = (
            ["ratio", "fraction"], [(r, fractions[r]) for r in sorted(fractions)]
        )
        if policy:
            out["policy_verdict"] = threshold_policy_check(recon, *policy).as_dict()

    if "mia" in attacks:
        out["mia_plain"] = privacy.mia_plain(*inputs["mia"], seed=config.seed).as_dict()

    if "mia_poisoned" in attacks:
        out["mia_poisoned"] = privacy.mia_poisoned(*inputs["mia_poisoned"], seed=config.seed).as_dict()
    return out, tables


def utility_section(tasks, config: nnet.TrainConfig, allow_overlap: bool, read):
    """Run the TSTR ``tasks`` in order on the files ``read`` gives, each with
    ``config`` (the task sets the loss).

    Returns the list of task results and their epoch traces as side tables.
    """
    real_fit, synthetic_fit, real_eval = map(read, UTILITY_FILES)
    overlap = {d.year for d in real_fit.start_dates} & {d.year for d in real_eval.start_dates}
    if overlap and not allow_overlap:
        raise SynthmeterError(
            f"evaluation years {sorted(overlap)} overlap the fit period; "
            "set allow_overlap (--allow-overlap on the command line) to override"
        )

    results, tables = [], {}
    for name in tasks:
        # the public entry, looked up on the module so a tracer wrapping it sees the call
        result = getattr(utility, f"tstr_{name}")(real_fit, synthetic_fit, real_eval, config)
        tables[f"tstr_{name}_trace.csv"] = (list(utility.TASKS[name].trace_header), result.epochs_trace)
        results.append(result.as_dict())
    return results, tables


SECTIONS = {"fidelity": fidelity_section, "privacy": privacy_section, "utility": utility_section}


def _require(noun: str, options: dict, keys, reason: str) -> None:
    for key in keys:
        if key not in options:
            raise InvalidConfig(f"{noun} {key!r} is required {reason}")


def _build(config, options: dict, seed: int):
    """The dataclass ``config`` from ``seed`` and the options that name its fields."""
    return config(**{key: options[key] for key in options.keys() & {f.name for f in fields(config)}}, seed=seed)


def plan(manifest: dict, seed: int) -> dict[str, tuple]:
    """Check the object sections of a manifest whose top level passed check_options, and
    build each requested suite's configs before any file is read: the arguments its
    section takes ahead of its reader. A bad key, type or range, a missing file key that a
    requested part reads (FILES), an ACF lag not below the horizon length, a KS sample below
    its minimum, or a policy without ``recon_poisoned`` or off the threshold grid raises InvalidConfig."""
    for name, value in manifest.items():
        if isinstance(value, dict):  # after the top-level check, a suite or the generator
            check_options(name, value)
    requested = {name: {} if manifest[name] is True else manifest[name] for name in SUITES if manifest.get(name)}
    suites: dict[str, tuple] = {}
    if "fidelity" in requested:
        _require("manifest key", manifest, FILES["fidelity"], "by fidelity")
        config = _build(fidelity.FidelityConfig, requested["fidelity"], seed)
        lag, length = config.acf_max_lag, Horizon.from_name(manifest.get("horizon", "daily")).length
        check_value("acf_max_lag", lag, lag < length, f"below the horizon length {length}")
        suites["fidelity"] = (config,)
    if "privacy" in requested:
        # ``"privacy": true`` runs every attack (an empty object never runs)
        options = requested["privacy"] or dict.fromkeys(PRIVACY_ATTACKS, True)
        attacks = tuple(name for name in PRIVACY_ATTACKS if options.get(name))
        for attack in attacks:
            reason = "by the poisoned attacks" if "registry" in FILES[attack] else f"by {attack}"
            _require("manifest key", manifest, FILES[attack], reason)
        config = _build(privacy.ReconstructionConfig, options, seed)
        size, least = config.sample_size, kernels.KS_MIN_SAMPLE
        check_value("sample_size", size, "recon" not in attacks or size is None or size >= least,
                    f"at least {least} for the recon attack")
        policy = options.get("policy")
        if policy:  # the verdict's (ratio, max_fraction), its ratio on the threshold grid
            if "recon_poisoned" not in attacks:
                raise InvalidConfig("privacy option 'policy' requires 'recon_poisoned' to be on")
            policy = (float(policy["ratio"]), float(policy["max_fraction"]))
            _grid_ratio(config.threshold_ratios, policy[0])
        suites["privacy"] = (attacks, config, policy)
    if "utility" in requested:
        options = requested["utility"]
        _require("utility option", options, UTILITY_FILES, "to run the utility suite")
        config = _build(nnet.TrainConfig, options, seed)
        tasks = tuple(options.get("tasks", utility.TASKS))
        suites["utility"] = (tasks, config, options.get("allow_overlap", False))
    return suites


def reader(manifest: dict, base: Path):
    """``(read, digests, keep)``: ``read(key)`` gives what a manifest file key names, at its
    horizon; each profile file is read and hashed into ``digests`` once, the registry per call,
    unhashed. ``keep(*key_lists)`` forgets every read file that no key in the lists names."""
    horizon = Horizon.from_name(manifest.get("horizon", "daily"))
    loaded, digests = {}, {}

    def path(key: str) -> Path:
        return base / (manifest["utility"][key] if key in UTILITY_FILES else manifest[key])

    def read(key: str):
        file = path(key)
        if key == "registry":
            return read_registry(file, horizon=horizon)
        if file not in loaded:
            loaded[file] = (read_wide(file, horizon=horizon), file_digest(file))
        profiles, digests[f"utility_{key}" if key in UTILITY_FILES else key] = loaded[file]
        return profiles

    def keep(*key_lists) -> None:
        for forgotten in loaded.keys() - {path(key) for keys in key_lists for key in keys}:
            del loaded[forgotten]

    return read, digests, keep


@kernels.one_blas_thread
def run_full_evaluation(manifest_path, output_dir=None, seed: int | None = None) -> EvaluationOutcome:
    """Execute the suites a manifest requests and write report plus side files.

    The report body is a pure function of (inputs, manifest, seeds); the
    timestamp is the only varying field.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    check_options("manifest", manifest)
    if seed is None:
        seed = manifest.get("seed", 0)
    suites = plan(manifest, seed)
    base = manifest_path.parent
    read, digests, keep = reader(manifest, base)
    output_dir = Path(output_dir) if output_dir else base / "evaluation"
    generator = manifest.get("generator")
    output_dir.mkdir(parents=True, exist_ok=True)

    side_files: list[Path] = []
    failures: list[str] = []

    # shared files are read first, so a bad one stops the run; a suite's own files fail only it
    if suites.keys() & {"fidelity", "privacy"}:
        for key in ("train", "holdout", "synthetic"):
            if key in manifest:
                read(key)
    if manifest.get("registry"):
        digests["registry"] = file_digest(base / manifest["registry"])
    # the file keys each planned suite reads: after the shared reads and each suite, forget the rest
    reads = {name: [key for part in (planned[0] if name == "privacy" else [name]) for key in FILES[part]]
             for name, planned in suites.items()}
    keep(*reads.values())

    report: dict = {
        "toolkit_version": __version__,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
        "input_digests": digests,
        "generator_metadata": GeneratorMetadata(**generator).as_dict() if generator else None,
        "config_echo": manifest,
        "seeds": {"global": seed},
    }

    for name in SUITES:
        if name not in suites:
            report[name] = dict(NOT_RUN)
            continue
        del reads[name]
        try:
            report[name], tables = SECTIONS[name](*suites[name], read)
            for filename, table in tables.items():
                if isinstance(table, Exception):  # a failed side table: the section keeps its results
                    failures.append(f"{name} {filename}: {table}")
                    report[name].setdefault("failed_side_files", {})[filename] = str(table)
                    continue
                write_table(output_dir / filename, *table)
                side_files.append(output_dir / filename)
        except Exception as exc:  # noqa: BLE001 - suite failures become report entries
            failures.append(f"{name}: {exc}")
            report[name] = {"status": "failed", "error": str(exc)}
        keep(*reads.values())

    report_path = output_dir / "report.json"
    with open(report_path, "w") as fh:
        fh.write(render_report(report))
    return EvaluationOutcome(
        report=report, report_path=report_path, side_files=side_files, failures=failures
    )
