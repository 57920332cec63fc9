"""The documented API: the README's library sketch runs and every exported
name resolves."""

import re
from pathlib import Path

import expsplit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["record"].status == "ok"
    assert "'status': 'ok'" in capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in expsplit.__all__ if not hasattr(expsplit, name)]
    assert missing == []
    assert len(set(expsplit.__all__)) == len(expsplit.__all__)
