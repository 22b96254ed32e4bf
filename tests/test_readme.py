import json
import re
from pathlib import Path

from invharm.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the README's python blocks call the public API as documented, so a
    # signature change that leaves them stale fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_config_block_shows_the_defaults():
    # the README says every field of its Config block is the default
    block = re.search(r"### Config\n.*?```json\n(.*?)```", README.read_text(), re.S)
    assert json.loads(block.group(1)) == parse_config({"modes": {}}).echo()
