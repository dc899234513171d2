"""The README's example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    epochs, mean_prediction = capsys.readouterr().out.split()
    assert 1 <= int(epochs) <= 20
    assert math.isfinite(float(mean_prediction))
