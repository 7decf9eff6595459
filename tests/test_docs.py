import doctest
from pathlib import Path

from phonon_stats.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    """The README's Python examples are doctests: a changed value fails here."""
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_layout_names_every_module():
    """The README's Layout block names exactly the package's ``.py`` files."""
    layout = README.read_text().split("## Layout", 1)[1].split("```")[1]
    named = {
        line.split()[0]
        for line in layout.splitlines()
        if line.startswith("  ") and line.split()[0].endswith(".py")
    }
    package = README.parent / "src" / "phonon_stats"
    assert named == {path.name for path in package.glob("*.py")}


def test_readme_command_lines(tmp_path, monkeypatch):
    """Each ``phonon-stats`` line of the README's command-line block runs
    through ``main`` in a fresh directory and exits 0."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line.split("#")[0].split() for line in block.split("```", 1)[0].splitlines()]
    assert len(lines) == 5 and all(argv[0] == "phonon-stats" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
