import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    """The README's library example runs as written against the names udgl exports."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(code, "README.md: Library example", "exec"), {})
