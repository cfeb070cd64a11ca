"""The benchmark's layer spans must keep finding the functions they wrap."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in load_wraps()])
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
