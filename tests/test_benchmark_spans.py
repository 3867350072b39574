"""The benchmark's traced run wraps package functions by module attribute
name (perfbench/tracing.py). Every name it wraps must exist, so that a
rename fails here and not only in ``perfbench/run.py --trace 1``."""

import importlib
import types
from pathlib import Path

import pytest

from locodec.decoders import Decoder

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """Execute the file as a fresh module; reading it writes nothing, not
    even a bytecode cache, under perfbench/."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", sorted({(module, attr) for _, module, attr in tracing.FUNCTION_SPANS})
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("attr", [attr for _, attr in tracing.METHOD_SPANS])
def test_traced_decoder_method_exists(attr):
    assert callable(getattr(Decoder, attr, None)), f"Decoder.{attr}"
