"""Shared fixtures."""

from __future__ import annotations

import pytest

from deidpipe.lexicon import load_lexicon


@pytest.fixture()
def tiny_lexicon():
    """Two blacklist phrases and two whitelist phrases, no overlap."""
    black = ["#category: personnel", "john doe", "#category: patient_id", "mrn12345"]
    white = ["#category: descriptor", "pleural effusion", "cardiomegaly"]
    return load_lexicon(iter(black), iter(white))
