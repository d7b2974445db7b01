"""The package's public names."""

import spinlight


def test_every_public_name_resolves():
    assert [name for name in spinlight.__all__ if not hasattr(spinlight, name)] == []
