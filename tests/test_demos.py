"""Each demo prints exactly the bytes pinned in tests/golden/<demo>.txt.

Regenerate a golden file only when a demo's output is meant to change:
    PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_golden_bytes(capsys, name):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    expected = (ROOT / "tests" / "golden" / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
