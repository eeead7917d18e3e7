"""The quick tour in README.md runs as printed there."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 7
    assert result.failed == 0
