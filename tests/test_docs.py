"""The README names only private helpers that exist, so that a helper can
neither be deleted nor renamed while the docs still describe it."""

import importlib
import pkgutil
import re
from pathlib import Path

import fockalg

ROOT = Path(__file__).resolve().parents[1]


def test_readme_names_only_private_helpers_that_exist():
    names = set(re.findall(r"`(_\w+)`", (ROOT / "README.md").read_text()))
    assert names  # the README describes its kernels by name
    modules = [importlib.import_module(f"fockalg.{info.name}")
               for info in pkgutil.iter_modules(fockalg.__path__)]
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert missing == []
