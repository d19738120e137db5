"""The demo's outputs keep their bits.

``byte_identity.json`` holds, for ``synthmeter demo`` plus ``evaluate`` at
40 households (seed 1) and at 250 households (seed 0), the SHA-256 of
every workspace file, every side file and ``report.json`` with its
timestamp line removed. It also holds a fingerprint of what those bits
depend on besides the program: the NumPy version, NumPy's BLAS and the
CPU features NumPy dispatches to. Where the fingerprint matches, the test
rebuilds both demos and compares the digests; elsewhere it skips and
says why. synthmeter's entry points hold BLAS to one thread, so the
digests hold at any BLAS thread setting.

After a change that is meant to move the bits, regenerate the digests
from the root of the repository with

    PYTHONPATH=src python tests/test_byte_identity.py

and list the regeneration in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from synthmeter import cli

DIGESTS = Path(__file__).with_name("byte_identity.json")
RUNS = {"40-households-seed-1": (40, 1), "250-households-seed-0": (250, 0)}


def fingerprint() -> dict | None:
    """NumPy's version, BLAS and CPU dispatch features; None where NumPy
    cannot report them."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 only prints its configuration
        return None
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu_baseline": simd["baseline"],
        "cpu_dispatch": simd["found"],
    }


def digests(root: Path, households: int, seed: int) -> dict[str, str]:
    """Run ``demo`` and ``evaluate`` under ``root``; the SHA-256 of every
    file they write, by path relative to ``root``."""
    workspace, evaluation = root / "workspace", root / "evaluation"
    demo = ["demo", "--output-dir", str(workspace), "--households", str(households), "--seed", str(seed)]
    evaluate = ["evaluate", "--manifest", str(workspace / "manifest.json"), "--output-dir", str(evaluation)]
    for argv in (demo, evaluate):
        if cli.main(argv) != 0:
            raise RuntimeError(f"synthmeter {' '.join(argv)} failed")
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "report.json":
                data = b"".join(line for line in data.splitlines(True) if b'"timestamp"' not in line)
            files[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return files


def test_demo_outputs_keep_their_bits(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    here = fingerprint()
    if here != recorded["fingerprint"]:
        pytest.skip(f"the digests were made with {recorded['fingerprint']}; this host has {here}")
    for name, (households, seed) in RUNS.items():
        expected, actual = recorded["runs"][name], digests(tmp_path / name, households, seed)
        assert "evaluation/report.json" in actual and "workspace/synthetic.csv" in actual
        changed = sorted(path for path in expected.keys() | actual.keys() if expected.get(path) != actual.get(path))
        assert changed == [], f"{name}: these files changed their bits"


if __name__ == "__main__":
    if fingerprint() is None:
        sys.exit("this NumPy cannot report its BLAS and CPU features; no digests written")
    with tempfile.TemporaryDirectory() as scratch:
        runs = {name: digests(Path(scratch, name), *args) for name, args in RUNS.items()}
    DIGESTS.write_text(json.dumps({"fingerprint": fingerprint(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
