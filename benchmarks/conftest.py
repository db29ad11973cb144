"""Shared configuration for the benchmark harnesses.

Every benchmark module regenerates one of the paper's constructions (see
README.md).  Each benchmark both *times* the construction (via
pytest-benchmark) and *prints* the rows/series the paper reports, so running
``pytest benchmarks/bench_*.py --benchmark-only -s`` doubles as the
reproduction log.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(id): links a benchmark to its experiment id (E1, ...)"
    )


@pytest.fixture
def report_lines(capsys):
    """Return a helper that prints experiment rows even under pytest capture."""

    def _report(*lines):
        with capsys.disabled():
            for line in lines:
                print(line)

    return _report
