"""The README's list of the public surface names only what the package
exports, so a name that is removed cannot stay in the docs."""

import re
from pathlib import Path

import zetafix

README = Path(__file__).resolve().parents[1] / "README.md"


def _surface_bullets() -> str:
    """The bullets under "The public surface", up to the first line
    that neither starts nor continues a bullet."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("The public surface"))
    bullets = []
    for line in lines[start + 1:]:
        if line.startswith(("- ", "  ")):
            bullets.append(line)
        elif bullets:
            break
    return "\n".join(bullets)


def test_every_listed_name_is_exported():
    names = re.findall(r"`([^`]+)`", _surface_bullets())
    assert len(names) > 50
    assert [n for n in names if not hasattr(zetafix, n)] == []
