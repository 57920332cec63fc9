"""The documented API: the README's library sketch runs and every exported
name resolves."""

import importlib
import pkgutil
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
    # the package and every submodule that declares __all__
    names = [m.name for m in pkgutil.iter_modules(expsplit.__path__)]
    assert "harness" in names
    for module in [expsplit] + [importlib.import_module(f"expsplit.{n}") for n in names]:
        exported = getattr(module, "__all__", [])
        missing = [n for n in exported if not hasattr(module, n)]
        assert missing == [], module.__name__
        assert len(set(exported)) == len(exported), module.__name__
