"""The README's example runs as written, its method table matches the code,
and every public name has a caller."""

import ast
import inspect
import math
import re
from pathlib import Path

import drureg
from drureg.harness import METHOD_KINDS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Public names that only correctness gates call: the finite-difference
# gradient suite, the gamma = 1 loss identities and the CVaR criteria.
GATE_ENTRY_POINTS = {"backward", "cvar", "loss_gradients", "squared_loss", "ru_loss",
                     "pinball_loss"}


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


def test_every_export_has_a_caller():
    used = set(GATE_ENTRY_POINTS)
    sources = [p for p in (ROOT / "src" / "drureg").glob("*.py") if p.name != "__init__.py"]
    for path in sources + list((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    for code in re.findall(r"```.*?```|`[^`]+`", README.read_text(), flags=re.S):
        used.update(re.findall(r"\w+", code))
    uncalled = [name for name in drureg.__all__
                if not inspect.ismodule(getattr(drureg, name)) and name not in used]
    assert uncalled == []
