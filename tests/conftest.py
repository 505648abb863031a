"""Shared fixtures: cached benchmark builds at several scales.

Building and assembling the Livermore suite is the expensive part of
the test suite, so scaled-down builds are shared session-wide.  The
suite builder itself memoises by (format, scale, seed), making these
fixtures cheap for every module that needs a program.
"""

from __future__ import annotations

import pytest

from repro.kernels.suite import cached_livermore_suite


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.jsonl from the current simulator "
        "instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")

#: Scales used across the test suite.  "tiny" keeps every kernel at a
#: handful of iterations (fast semantic checks); "small" is large enough
#: for cache/queue behaviour to be representative of the full benchmark.
TINY_SCALE = 0.03
SMALL_SCALE = 0.10


@pytest.fixture(scope="session")
def tiny_suite():
    return cached_livermore_suite(scale=TINY_SCALE)


@pytest.fixture(scope="session")
def small_suite():
    return cached_livermore_suite(scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def tiny_program(tiny_suite):
    return tiny_suite.program


@pytest.fixture(scope="session")
def small_program(small_suite):
    return small_suite.program
