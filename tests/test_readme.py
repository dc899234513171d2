"""The README's example runs as written and its method table matches the code."""

import math
import re
from pathlib import Path

from drureg.harness import METHOD_KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    epochs, mean_prediction = capsys.readouterr().out.split()
    assert 1 <= int(epochs) <= 20
    assert math.isfinite(float(mean_prediction))


def test_readme_method_table_lists_every_method():
    text = README.read_text().split("## Methods", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \|", text, flags=re.M)
    assert tuple(rows) == METHOD_KINDS
