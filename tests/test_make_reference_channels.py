"""tools/make_reference_channels.py regenerates the bundled reference matrices."""

import importlib.util
import pathlib
from importlib import resources

import pytest

from fluxqubit.datafiles import _REFERENCE_FILES, REFERENCE_GATES
from fluxqubit.qcore import format_matrix

_spec = importlib.util.spec_from_file_location(
    "make_reference_channels",
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_reference_channels.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


@pytest.mark.parametrize("gate", REFERENCE_GATES)
def test_each_recipe_reproduces_the_body_of_its_bundled_file(gate):
    text = (resources.files("fluxqubit") / "data" / _REFERENCE_FILES[gate]).read_text(
        encoding="utf-8")
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    assert format_matrix(tool.reference_choi(gate)) == body


def test_every_recipe_is_a_reference_gate():
    assert sorted(tool.RECIPES) == sorted(REFERENCE_GATES)
