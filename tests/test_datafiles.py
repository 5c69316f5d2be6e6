"""The bundled data holds exactly the files a loader reads."""

import fnmatch
import pathlib

import pytest

from fluxqubit import datafiles as df

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bundled_data_is_exactly_what_the_loaders_read():
    names = sorted(entry.name for entry in (ROOT / "src" / "fluxqubit" / "data").iterdir())
    assert names == sorted(df.BUNDLED_DEVICES)
    for name in names:
        df.load_bundled_device(name)
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    for pattern in pyproject["tool"]["setuptools"]["package-data"]["fluxqubit"]:
        assert fnmatch.filter([f"data/{name}" for name in names], pattern), pattern
