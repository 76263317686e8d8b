"""Shared test plumbing: the golden-fixture update flag.

``pytest --update-golden`` rewrites the canonical fixtures under
``tests/golden/`` from the current code instead of comparing against them.
Regenerate deliberately (after an intentional output change), review the
diff, and commit it alongside the change that caused it::

    PYTHONPATH=src python -m pytest tests/test_golden_outputs.py \
        -m 'slow or not slow' --update-golden
"""

from __future__ import annotations

import sys

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ fixtures from current experiment output",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when this run should rewrite golden fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(autouse=True)
def _isolated_cli_cache(tmp_path, monkeypatch):
    """Keep `repro run`'s default result cache out of the working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture
def python_calls():
    """``count(fn, *args)``: Python-level calls one ``fn(*args)`` makes.

    ``fn`` itself counts as one; calls into C builtins do not count.  The
    profiler's ``'call'`` events make this an operation count, not a timer,
    so op-count guards built on it are stable on any host.
    """
    def count(fn, *args) -> int:
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return calls

    return count
