"""The demos run in-process, and each prints exactly its pinned stdout."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_witt_vectors.py": "213a1a53484748434f061774e82d874f8bc09602ee3907ef0d677220e6fee6fb",
    "02_lifts_and_determinant.py": "0cacf8c429750a5f7015dddda1733fa5a6df18c5a56a15fa942f07f6107646b8",
    "03_projective_line_and_ruled.py": "9cb6dae9a085c48be5ed5ea0d928716230b03d5c69711b092adbcae9afa2a471",
    "04_classification.py": "3011b5bc4e817511f0b566d0c2945f678a1131c7e51e6df41865910e1021abc6",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    assert digest == STDOUT_SHA256[name]
