"""The engine is configured by its config and its arguments only."""

import re
from pathlib import Path

import mmvcone

_AMBIENT = re.compile(r"os\.environ|os\.getenv|concurrent\.futures")


def test_engine_reads_no_environment_and_starts_no_pool():
    sources = sorted(Path(mmvcone.__file__).parent.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sources
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if _AMBIENT.search(line)]
    assert hits == []
