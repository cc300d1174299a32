"""The row encoding: ``to_dict`` is one level of copying, ``from_dict``
builds what the constructor builds.

``CellConfig.to_dict`` and ``CellResult.to_dict`` build their dicts
from field names, not with :func:`dataclasses.asdict`.  That gives the
same dict only while every config field is a str, int, bool or None
and every result field other than ``config`` is a scalar or a tuple of
scalars.  These tests pin that for every golden row, with ``asdict``
as the reference, so a future list, dict or dataclass column fails
here instead of being shared between a row and its dict.

``from_dict`` sets each field without binding keyword arguments, from
the payload or from the field's default.  The tests below pin that the
instance it builds has the same attributes, in the same order and (for
a config) in the same key-sharing dict, as the generated ``__init__``
builds from the same values, and that no field has a
``default_factory``, which a default read off the field would skip.
"""

import json
import os
import subprocess
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import pytest

import repro
from repro.exp.results import _TUPLE_FIELDS, CellResult
from repro.exp.spec import CellConfig

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


#: Result fields without a default: a payload must carry each of them.
REQUIRED = [
    field.name for field in fields(CellResult) if field.default is MISSING
]


def row_id(row: dict) -> str:
    return f"{row['label']}-s{row['config']['seed']}"


def constructed(data: dict) -> CellResult:
    """The row that ``CellResult(**kwargs)`` builds from *data*."""
    kwargs = dict(data)
    kwargs["config"] = CellConfig(**data["config"])
    for name in _TUPLE_FIELDS:
        kwargs[name] = tuple(kwargs[name])
    return CellResult(**kwargs)


@pytest.fixture(params=GOLDEN_ROWS, ids=row_id)
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


def test_from_dict_inverts_to_dict(result):
    again = CellResult.from_dict(result.to_dict())
    assert again == result
    assert again.to_dict() == result.to_dict()


@pytest.mark.parametrize("row", GOLDEN_ROWS, ids=row_id)
def test_from_dict_builds_what_the_constructor_builds(row):
    built = CellResult.from_dict(row)
    reference = constructed(row)
    assert list(vars(built).items()) == list(vars(reference).items())
    assert list(vars(built.config).items()) == list(
        vars(reference.config).items()
    )


def test_config_keeps_the_key_sharing_dict():
    # Set field by field, a config keeps the key-sharing instance dict
    # that __init__ gives it; filled by one dict update it would be
    # about three times larger.  A fresh interpreter compares them:
    # configs built with the larger dict use up the class's budget of
    # shared keys, so in a process that already holds some, later
    # __init__-built configs get the larger dict too and would match.
    # A few __init__-built configs first settle that budget, as in any
    # process that runs cells before it reads rows back.
    script = (
        "import json, sys\n"
        "from repro.exp.spec import CellConfig\n"
        "configs = [row['config'] for row in json.load(sys.stdin)]\n"
        "settled = [CellConfig(**c) for c in configs[:8]]\n"
        "sizes = [\n"
        "    [sys.getsizeof(vars(CellConfig.from_dict(c))),\n"
        "     sys.getsizeof(vars(CellConfig(**c)))]\n"
        "    for c in configs\n"
        "]\n"
        "print(json.dumps(sizes))\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(GOLDEN_ROWS),
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    sizes = json.loads(done.stdout)
    assert len(sizes) == len(GOLDEN_ROWS)
    for row, (built, made) in zip(GOLDEN_ROWS, sizes):
        assert built == made, row_id(row)


def test_stored_rows_run_post_init():
    # A payload without its replicate summaries is autofilled, as the
    # constructor autofills them, and a solo config is canonicalised.
    row = GOLDEN_ROWS[0]
    bare = {
        name: value for name, value in row.items()
        if not name.endswith(("_mean", "_cv"))
    }
    bare["config"] = {**row["config"], "sched": "wrr"}
    assert row["config"]["tenants"] == 1
    assert CellResult.from_dict(bare) == CellResult.from_dict(row)


@pytest.mark.parametrize("name", REQUIRED)
def test_missing_required_field_is_a_type_error(name):
    payload = dict(GOLDEN_ROWS[0])
    del payload[name]
    with pytest.raises(TypeError, match=name):
        CellResult.from_dict(payload)


def test_no_field_has_a_default_factory():
    for cls in (CellConfig, CellResult):
        for field in fields(cls):
            assert field.default_factory is MISSING, (cls.__name__, field.name)
