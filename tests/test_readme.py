"""The README's library quick start runs, and its names are the package's `__all__`."""

import re
from pathlib import Path

import clustergen as cg

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs(capsys):
    quick_start = re.search(r"```python\n(.*?)```", README, re.DOTALL).group(1)
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    assert namespace["dataset"].points.shape == (300, 2)
    assert namespace["directional"].shape == (300, 3)
    assert len(capsys.readouterr().out.splitlines()) == 3  # one report per pair


def test_every_readme_name_is_exported():
    used = set(re.findall(r"\bcg\.(\w+)", README))
    assert used - set(cg.__all__) == set()


def test_every_export_is_in_readme():
    missing = [name for name in cg.__all__ if not re.search(rf"\b{name}\b", README)]
    assert missing == []
    assert all(hasattr(cg, name) for name in cg.__all__)
