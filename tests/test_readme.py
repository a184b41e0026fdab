"""README's code blocks run as written, so an API change that breaks them
fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the README's ``## <heading>``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(readme_block("Library example"), str(README), "exec"), namespace)
    cell = namespace["cell"]
    assert cell.metrics.n_runs == 20
    assert len(namespace["results"]) == 4
    final_rmse, settle = capsys.readouterr().out.split()
    assert float(final_rmse) == cell.metrics.final_rmse
    assert settle == str(cell.metrics.steps_to_threshold)
