"""Shared fixtures: memoized command-line runs for the bundled experiment tasks.

Also loads the suite's ``hypothesis`` profile: derandomized (the same
examples on every run), no per-example deadline, few examples, and no
example database, so property tests stay reproducible and cheap.  Every
test must leave ``os.environ`` as it found it, since later tests hand it to
child processes.
"""

import json
import os

import pytest
from hypothesis import settings

from spectral_moduli import cli

settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def environment_unchanged():
    """Fail a test that leaves ``os.environ`` changed after its fixtures
    (``monkeypatch`` included) are torn down."""
    before = dict(os.environ)
    yield
    changed = sorted(k for k in before.keys() | os.environ.keys()
                     if k != "PYTEST_CURRENT_TEST"
                     and before.get(k) != os.environ.get(k))
    assert not changed, f"test left os.environ changed: {changed}"


@pytest.fixture(scope="session")
def cli_task(tmp_path_factory):
    """Run a driver command once per distinct argument tuple and cache it.

    Returns ``run(*args) -> (exit_code, out_dir)``; the bundled learning and
    training tasks are expensive, so every test that needs one shares the
    same completed run.
    """
    cache: dict[tuple, tuple[int, object]] = {}

    def run(*args: str):
        key = tuple(args)
        if key not in cache:
            out = tmp_path_factory.mktemp("task")
            code = cli.main(list(args) + ["--out", str(out)])
            cache[key] = (code, out)
        return cache[key]

    return run


@pytest.fixture(scope="session")
def load_report():
    def load(out_dir, name="report.json"):
        with open(out_dir / name) as fh:
            return json.load(fh)

    return load
