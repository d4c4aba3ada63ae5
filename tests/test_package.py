"""The package's public surface."""

from __future__ import annotations

from pathlib import Path

import stopgames


def test_all_names_resolve():
    missing = [name for name in stopgames.__all__ if not hasattr(stopgames, name)]
    assert missing == []
    assert len(set(stopgames.__all__)) == len(stopgames.__all__)


def test_child_sums_live_only_in_the_tree_module():
    # Every backward induction takes E_t from EventTree.expect_next, whose
    # summation order fixes the report bytes; no other module reads the
    # edge probabilities to sum children by hand.
    package = Path(stopgames.__file__).parent
    readers = sorted(
        path.name
        for path in package.glob("*.py")
        if "child_probs" in path.read_text(encoding="utf-8")
    )
    assert readers == ["tree.py"]
