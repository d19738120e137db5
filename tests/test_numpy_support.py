"""pyproject.toml promises numpy>=1.24 and Python>=3.10, so the package may not use
names that exist only from NumPy 2.0 or from Python 3.11 on."""

from __future__ import annotations

import re
from pathlib import Path

import synthmeter

NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bnp\.(?:concat|permute_dims|matrix_transpose|unstack|astype)\b"
)
PYTHON_3_11_ONLY = re.compile(
    r"\bhashlib\.file_digest\b|\b(?:datetime|dt)\.UTC\b|\btyping\.Self\b|\btomllib\b|ExceptionGroup\b"
    r"|\bexcept\s*\*|\bTaskGroup\b|\bfrom\s+(?:hashlib|datetime|typing)\s+import\b.*\b(?:file_digest|UTC|Self)\b"
)


def uses(pattern: re.Pattern, source: str) -> list[str]:
    return [
        f"{number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if pattern.search(line)
    ]


def package_uses(pattern: re.Pattern) -> dict[str, list[str]]:
    sources = sorted(Path(synthmeter.__file__).parent.glob("*.py"))
    assert sources
    hits = {path.name: uses(pattern, path.read_text()) for path in sources}
    return {name: lines for name, lines in hits.items() if lines}


def test_deny_list_matches_only_numpy_2_names():
    assert uses(NUMPY_2_ONLY, "w.mT @ x\nnp.concat([a, b])\nnp.astype(a, float)") == [
        "1: w.mT @ x", "2: np.concat([a, b])", "3: np.astype(a, float)",
    ]
    assert not uses(NUMPY_2_ONLY, "np.concatenate([a, b])\na.astype(float)\nw.mTx\nw.swapaxes(-1, -2)")


def test_package_uses_no_numpy_2_only_names():
    assert not package_uses(NUMPY_2_ONLY)


def test_deny_list_matches_only_python_3_11_names():
    source = "\n".join([
        "digest = hashlib.file_digest(fh, 'sha256')",
        "from hashlib import file_digest",
        "now = dt.datetime.now(dt.UTC)",
        "from datetime import UTC, date",
        "def copy(self) -> typing.Self:",
        "from typing import Any, Self",
        "import tomllib",
        "raise ExceptionGroup('two', errors)",
        "except* ValueError:",
        "async with asyncio.TaskGroup() as group:",
    ])
    assert [hit.split(":")[0] for hit in uses(PYTHON_3_11_ONLY, source)] == [str(n) for n in range(1, 11)]
    assert not uses(PYTHON_3_11_ONLY, "\n".join([
        "digest = file_digest(path)",  # the package's own report.file_digest
        "h = hashlib.sha256()",
        "now = dt.datetime.now(dt.timezone.utc)",
        "from datetime import date",
        "from typing import Any, SelfTest",
        "import toml",
        "except ValueError:",
        "except (KeyError, IndexError):",
        "self.utc_offset = 0",
    ]))


def test_package_uses_no_python_3_11_only_names():
    assert not package_uses(PYTHON_3_11_ONLY)
