"""The README's library example runs against the current API, and the
README names every config key."""

import re
from pathlib import Path

from levelpde.cli import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.split()) == 4


def test_every_config_key_is_written_out():
    text = README.read_text()
    assert [key for key in sorted(_KEYS) if f"`{key}`" not in text] == []
