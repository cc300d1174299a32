"""The row encoding: ``to_dict`` is one level of copying.

``CellConfig.to_dict`` and ``CellResult.to_dict`` build their dicts
from field names, not with :func:`dataclasses.asdict`.  That gives the
same dict only while every config field is a str, int, bool or None
and every result field other than ``config`` is a scalar or a tuple of
scalars.  These tests pin that for every golden row, with ``asdict``
as the reference, so a future list, dict or dataclass column fails
here instead of being shared between a row and its dict.
"""

import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.exp.results import _TUPLE_FIELDS, CellResult

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_ROWS = json.loads(
    (FIXTURES / "golden_rows.json").read_text(encoding="utf-8")
)

SCALARS = (str, int, float, bool, type(None))


def reference_encoding(result: CellResult) -> dict:
    """The ``asdict``-based encoding ``CellResult.to_dict`` replaced."""
    data = asdict(result)
    data["config"] = asdict(result.config)
    for name in _TUPLE_FIELDS:
        data[name] = list(data[name])
    return data


@pytest.fixture(
    params=GOLDEN_ROWS,
    ids=lambda row: f"{row['label']}-s{row['config']['seed']}",
)
def result(request) -> CellResult:
    return CellResult.from_dict(request.param)


def test_config_dict_is_asdict(result):
    # Items, not just equality: the field order is part of the bytes
    # of every dump that does not sort its keys.
    config = result.config
    assert list(config.to_dict().items()) == list(asdict(config).items())


def test_result_dict_is_the_asdict_encoding(result):
    assert list(result.to_dict().items()) == list(
        reference_encoding(result).items()
    )


def test_fields_are_flat(result):
    for field in fields(result.config):
        value = getattr(result.config, field.name)
        assert isinstance(value, (str, int, bool, type(None))), field.name
    for field in fields(result):
        if field.name == "config":
            continue
        value = getattr(result, field.name)
        if isinstance(value, tuple):
            assert all(isinstance(item, SCALARS) for item in value), field.name
        else:
            assert isinstance(value, SCALARS), field.name


def test_mutating_a_dict_leaves_the_row_unchanged(result):
    before = result.to_dict()
    data = result.to_dict()
    data["tenant_ms"].append(1.0)
    data["tenant_labels"].append("intruder")
    data["config"]["app"] = "vadd"
    data["vim_ms"] = -1.0
    assert result.to_dict() == before
    assert result.config.to_dict() == before["config"]
