"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison; expensive artifacts (DSE runs, simulations)
are memoized process-wide by the harness's store-less engine and cache,
so a session runs each DSE job once and nothing persists across sessions.
Run with ``pytest benchmarks/ --benchmark-only``; the DSE-heavy modules
are marked ``tier2``, so ``-m "not tier2"`` keeps only the fast
microbenchmarks.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with exactly one timed invocation.

    The experiment drivers are deterministic and cached; timing repeated
    invocations would only measure the cache.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print engine + cache hit/miss accounting at session end."""
    from repro.harness.experiments import CACHE, ENGINE

    mem = CACHE.stats()
    terminalreporter.write_line(
        f"repro cache (memory): {mem['entries']} entries, "
        f"{mem['memory']} hits / {mem['miss']} misses"
    )
    terminalreporter.write_line("repro " + ENGINE.stats.summary())
