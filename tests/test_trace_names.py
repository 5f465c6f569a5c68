"""The traced benchmark (`perfbench/run.py --trace 1`) wraps trustpd functions
by name and fails on a name that no longer exists, so every name it lists
must still be defined in its trustpd module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def spanned_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(short, name) for short, names in module.SPANNED.items() for name in names]


@pytest.mark.parametrize("short, name", spanned_names())
def test_spanned_function_exists(short, name):
    module = importlib.import_module(f"trustpd.{short}")
    assert callable(getattr(module, name, None))
