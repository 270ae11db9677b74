"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_verbatim(capsys):
    text = README.read_text()
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text,
                          re.S)
    exec(compile(block, str(README), "exec"), {})
    *checks, flags, stack = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in checks] == [
        "pm.trace", "pm.sum_norm", "pm.expansion", "pm.schrodinger"]
    assert all(line.endswith("True") for line in checks)
    assert flags.startswith("ExtremizerFlags(") and "cs_saturated=True" in flags
    assert stack == "True"
