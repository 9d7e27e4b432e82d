"""README's "Config keys" table lists every config key with the code's default."""

import os
import re

from scei.harness import CONFIG_TABLE

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_config_rows() -> dict:
    with open(README) as f:
        text = f.read()
    section = text[text.index("### Config keys") :]
    section = section[: section.index("\n## ")]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"^\| `(\w+)` \| (.+?) \| .+ \|$", line)
        if match:
            key, cell = match.groups()
            assert key not in rows, f"README lists {key!r} twice"
            rows[key] = {"—": None, "(empty)": ""}.get(cell, cell.strip("`"))
    return rows


def test_config_table_matches_code():
    assert readme_config_rows() == {key: default for key, (default, _) in CONFIG_TABLE.items()}
