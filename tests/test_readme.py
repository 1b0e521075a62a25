"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from helpers import make_blobs, write_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    centers = ((5.0, 3.4, 1.5, 0.2), (5.9, 2.8, 4.3, 1.3), (6.6, 3.0, 5.6, 2.0))
    write_csv(tmp_path / "iris.csv",
              make_blobs(np.random.default_rng(0), n_per_class=20, centers=centers))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["metric"].dim == 4
    assert namespace["d2"] > 0
    assert 0 <= namespace["error"] <= 1
