from __future__ import annotations

from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    # a numpy RuntimeWarning (overflow, invalid value, divide by zero) that
    # leaks out of the program fails the test that triggered it
    for item in items:
        if TESTS_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
