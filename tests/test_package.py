"""The package's public surface."""

from __future__ import annotations

import stopgames


def test_all_names_resolve():
    missing = [name for name in stopgames.__all__ if not hasattr(stopgames, name)]
    assert missing == []
    assert len(set(stopgames.__all__)) == len(stopgames.__all__)
