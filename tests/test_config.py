"""Config is immutable and type-checked, so every value a run sees passed validation."""

import dataclasses
import json

import pytest

from sfhand.config import Config
from sfhand.errors import DataFormatError, UsageError


def test_fields_cannot_be_assigned():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.memory_mode = "nope"
    assert cfg.memory_mode == Config().memory_mode


def test_replace_validates():
    with pytest.raises(UsageError):
        Config().replace(memory_mode="nope")
    assert Config().replace(memory_mode="off").memory_mode == "off"


@pytest.mark.parametrize("field, value", [
    ("d", "eight"), ("d", 8.0), ("d", True), ("use_text", "no"), ("use_text", 1),
    ("learning_rate", "1e-3"), ("learning_rate", False), ("precision", None),
    ("confidence_threshold", 1.5), ("confidence_threshold", -0.5),
    ("confidence_threshold", float("nan")), ("learning_rate", float("nan")),
    ("lambda_box", float("inf")), ("weight_decay", float("-inf")),
    ("background_weight", 10**400),
])
def test_validate_rejects_a_wrong_type_or_range(field, value):
    with pytest.raises(UsageError, match=field):
        Config(**{field: value})
    with pytest.raises(UsageError, match=field):
        Config.from_json(json.dumps({field: value}))


def test_a_float_field_takes_an_int_and_the_threshold_its_bounds():
    assert Config(learning_rate=1).learning_rate == 1
    assert Config(confidence_threshold=0).confidence_threshold == 0
    assert Config(confidence_threshold=1.0).confidence_threshold == 1.0


@pytest.mark.parametrize("doc", ["[1, 2]", "5", '"d"', "null"])
def test_from_json_rejects_a_non_object(doc):
    with pytest.raises(DataFormatError, match="object"):
        Config.from_json(doc)
