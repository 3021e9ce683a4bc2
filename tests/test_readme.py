"""The library map in README.md names only attributes its modules have."""

import fnmatch
import importlib
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_map(text: str) -> dict[str, list[str]]:
    """{module: backticked names of its contents column} of the `## Library map` table."""
    section = text.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return rows


def test_the_parser_reads_each_row_of_the_table():
    text = (
        "## Library map\n\n| module | contents |\n|---|---|\n"
        "| `bell` | `fivel_bell` (the integral), `closed_form_bell_*` |\n"
        "| `cli`  | the `bellforge` command |\n\n## Next\n| `x` | `y` |\n"
    )
    assert library_map(text) == {"bell": ["fivel_bell", "closed_form_bell_*"], "cli": ["bellforge"]}


def test_every_name_in_the_library_map_is_a_public_attribute_of_its_module():
    rows = library_map(README.read_text())
    assert len(rows) >= 8
    missing = {}
    for module_name, names in rows.items():
        if module_name == "cli":  # names the command, not an attribute
            continue
        public = [a for a in dir(importlib.import_module(f"bellforge.{module_name}")) if not a.startswith("_")]
        missing[module_name] = [name for name in names if not fnmatch.filter(public, name)]
    assert {module: names for module, names in missing.items() if names} == {}
