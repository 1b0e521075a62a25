"""Hypothesis profiles. With the CI environment variable set, examples are
derandomized and a failing one prints its reproduction blob, so a failure
seen in CI reproduces locally under ``CI=1``. Local runs stay randomized.
Every test keeps its own ``max_examples``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
