"""The package's public names."""

import importlib
import os
import re

import spinlight

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_every_public_name_resolves():
    assert [name for name in spinlight.__all__ if not hasattr(spinlight, name)] == []


def test_package_layout_table_names_resolve():
    # every backticked identifier in a row of README's "Package layout" table
    # is a name of that row's module (formulas and formats are not identifiers)
    with open(README) as fh:
        section = fh.read().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(spinlight\.\w+)` +\| (.*) \|$", section, re.MULTILINE)
    assert len(rows) == 7
    missing = [(module, name) for module, contents in rows
               for name in re.findall(r"`([^`]+)`", contents)
               if name.isidentifier() and not hasattr(importlib.import_module(module), name)]
    assert missing == []
