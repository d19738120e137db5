"""pyproject.toml promises numpy>=1.24, so the package may not use names
that exist only from NumPy 2.0 on."""

from __future__ import annotations

import re
from pathlib import Path

import synthmeter

NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bnp\.(?:concat|permute_dims|matrix_transpose|unstack|astype)\b"
)


def numpy_2_only_uses(source: str) -> list[str]:
    return [
        f"{number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if NUMPY_2_ONLY.search(line)
    ]


def test_deny_list_matches_only_numpy_2_names():
    assert numpy_2_only_uses("w.mT @ x\nnp.concat([a, b])\nnp.astype(a, float)") == [
        "1: w.mT @ x", "2: np.concat([a, b])", "3: np.astype(a, float)",
    ]
    assert not numpy_2_only_uses("np.concatenate([a, b])\na.astype(float)\nw.mTx\nw.swapaxes(-1, -2)")


def test_package_uses_no_numpy_2_only_names():
    sources = sorted(Path(synthmeter.__file__).parent.glob("*.py"))
    assert sources
    hits = {path.name: numpy_2_only_uses(path.read_text()) for path in sources}
    assert not {name: lines for name, lines in hits.items() if lines}
