"""The benchmark's tracer patches functions by name: each one must exist."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spans  # noqa: E402


def test_every_traced_function_exists_where_the_tracer_patches_it():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in spans.targets() if attr not in vars(owner)]
    assert missing == []
