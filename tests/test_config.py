import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from toygrasp.config import DEFAULT_CONFIG, CliConfig, config_from_dict
from toygrasp.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_is_the_default_config():
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == DEFAULT_CONFIG


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


LEAF_PATHS = list(_leaf_paths(DEFAULT_CONFIG))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _override(path, value):
    raw = value
    for key in reversed(path):
        raw = {key: raw}
    return raw


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAF_PATHS), JSON_VALUES)
def test_any_leaf_value_gives_a_config_or_a_config_error(path, value):
    try:
        assert isinstance(config_from_dict(_override(path, value)), CliConfig)
    except ConfigError:
        pass
