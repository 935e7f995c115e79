from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first Python block under README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    code = library_example()
    assert "# 7/4" in code
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "7/4"
