"""Config is immutable, so every value a run sees passed validation."""

import dataclasses

import pytest

from sfhand.config import Config
from sfhand.errors import UsageError


def test_fields_cannot_be_assigned():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.memory_mode = "nope"
    assert cfg.memory_mode == Config().memory_mode


def test_replace_validates():
    with pytest.raises(UsageError):
        Config().replace(memory_mode="nope")
    assert Config().replace(memory_mode="off").memory_mode == "off"
