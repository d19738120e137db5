"""synthmeter's entry points hold NumPy's bundled OpenBLAS to one thread."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from synthmeter import demo, kernels, report

pytestmark = pytest.mark.skipif(
    kernels._BLAS_THREADS is None,
    reason="NumPy's BLAS exports no known thread-count functions, so synthmeter leaves its threads alone",
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def blas_threads():
    """The (get, set) pair, with the caller's count put back afterwards."""
    get, set_ = kernels._BLAS_THREADS
    before = get()
    yield get, set_
    set_(before)


def _synthmeter(threads: int, *args: str) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "synthmeter.cli", *args]
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _wait(runs: list[subprocess.Popen]) -> None:
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err.decode()


def _contents(target: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted(target.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "report.json":
                data = b"".join(line for line in data.splitlines(True) if b'"timestamp"' not in line)
            files[str(path.relative_to(target))] = data
    return files


def test_outputs_equal_at_one_and_two_blas_threads(tmp_path):
    """At 120 households the poisoned mixture fit, and so synthetic.csv and
    the report, differ in their last bits between one and two unpinned BLAS
    threads; under the pin they are byte-identical."""
    settings = (1, 2)  # each pair of runs side by side
    _wait([_synthmeter(t, "demo", "--output-dir", str(tmp_path / f"{t}/ws"), "--households", "120") for t in settings])
    _wait([
        _synthmeter(t, "evaluate", "--manifest", str(tmp_path / f"{t}/ws/manifest.json"),
                    "--output-dir", str(tmp_path / f"{t}/eval"))
        for t in settings
    ])
    one, two = _contents(tmp_path / "1"), _contents(tmp_path / "2")
    assert "ws/synthetic.csv" in one and "eval/report.json" in one
    assert one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


def test_nested_entries_restore_each_callers_count(blas_threads):
    get, set_ = blas_threads
    inner = kernels.one_blas_thread(get)
    outer = kernels.one_blas_thread(lambda: (get(), inner(), get()))
    set_(2)
    assert outer() == (1, 1, 1)
    assert get() == 2


def test_run_full_evaluation_restores_the_count_on_return_and_raise(blas_threads, tmp_path, monkeypatch):
    get, set_ = blas_threads
    demo.build_demo_workspace(tmp_path / "ws", households=12, days=6, seed=1)
    minimal = tmp_path / "ws" / "fidelity.json"
    minimal.write_text(
        '{"train": "train.csv", "holdout": "holdout.csv", "synthetic": "synthetic.csv", '
        '"fidelity": {"clusters_k": 2}}'
    )
    inside = []
    read_wide = report.read_wide
    monkeypatch.setattr(report, "read_wide", lambda *a, **k: inside.append(get()) or read_wide(*a, **k))
    set_(2)
    assert report.run_full_evaluation(minimal, output_dir=tmp_path / "eval").ok
    assert inside and set(inside) == {1}
    assert get() == 2
    with pytest.raises(OSError):
        report.run_full_evaluation(tmp_path / "missing.json")
    assert get() == 2
