"""Shared fixtures: cached corpora and the acceptance summary hook."""
from functools import lru_cache

import pytest

from oracles import exhaustive_list


@lru_cache(maxsize=None)
def _corpus(n: int, chain: tuple[str, ...]) -> tuple:
    return tuple(exhaustive_list(n, chain))


@pytest.fixture(scope="session")
def corpus():
    """corpus(n, *predicates) -> tuple of graphs, cached across the session."""

    def get(n: int, *chain: str) -> tuple:
        return _corpus(n, chain or ("connected", "claw-free"))

    return get


# one line per acceptance criterion in the terminal summary
ACCEPTANCE: list[tuple[str, bool, str]] = []


def record_acceptance(label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE.append((label, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok, detail in sorted(ACCEPTANCE):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {label}: {detail}")
