"""The committed derivative module matches its sympy generator."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_derivs_module_is_regenerated_byte_identically():
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("gen_derivs", ROOT / "tools" / "gen_derivs.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.derivs_source() == (ROOT / "src" / "esqpt" / "_derivs.py").read_text()
