"""Shared pytest setup: hypothesis runs derandomized and keeps no example
database, so every run draws the same examples. Its remaining cache (the
constants it harvests from local modules while collecting) goes to a
temporary directory removed at exit, so a test run writes no
``.hypothesis/`` into the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("perturba", derandomize=True, database=None)
settings.load_profile("perturba")

_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="perturba-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_STORAGE.name)
