"""Tests of the package's public surface: the README tour and ``__all__``."""

import re
import subprocess
import sys
from pathlib import Path

import strategia


def test_readme_tour_runs_and_public_names_resolve():
    """The README "Library quick tour" block runs as written, and every name
    in ``strategia.__all__`` resolves, sorted and without duplicates."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["losses"]) == len(namespace["sc"].hclass)

    names = strategia.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(strategia, name)]
    assert missing == []


def test_import_starts_no_process_or_thread():
    """The Monte Carlo process pool starts at the first pooled call, never
    at import."""
    code = (
        "import multiprocessing, threading\n"
        "import strategia, strategia.cli\n"
        "from strategia import experiments\n"
        "assert experiments._pool is None\n"
        "assert multiprocessing.active_children() == []\n"
        "assert threading.active_count() == 1\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
