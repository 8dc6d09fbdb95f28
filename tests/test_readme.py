"""The README's library example runs against the installed package.

CI runs the README's command block; this runs the Python block under
``## Library``, so removing or renaming a public name it uses fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, "expected one python block under ## Library"
    return blocks[0]


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    verdict, delta = capsys.readouterr().out.split()
    # the example's data carry a strong suppressive kernel, so M3 wins by
    # far more than the BIC margin
    assert verdict == "i_favored"
    assert float(delta) < -10.0
