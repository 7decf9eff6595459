import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    """The README's Python examples are doctests: a changed value fails here."""
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0
    assert result.failed == 0
