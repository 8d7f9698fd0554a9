"""The public surface: exported names and the README's library example."""

import re
from pathlib import Path

import segbreak
from segbreak import model, replication_dataset, table_preset

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in segbreak.__all__ if not hasattr(segbreak, name)]
    assert missing == []
    assert len(set(segbreak.__all__)) == len(segbreak.__all__)


def test_dataset_check_is_not_a_function():
    # Dataset(...) checks itself, so there is no separate check to call
    assert "validate_dataset" not in segbreak.__all__
    assert not hasattr(segbreak, "validate_dataset")
    assert not hasattr(model, "validate_dataset")


def test_readme_library_example_runs():
    text = _README.read_text()
    section = text[text.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    sample = replication_dataset(table_preset(1)[0], 0)
    namespace = {"y": sample.y, "X": sample.X}
    exec(compile(code, str(_README), "exec"), namespace)
    assert namespace["fit"].k == 2
    assert isinstance(namespace["errors"], segbreak.StandardErrorReport)
