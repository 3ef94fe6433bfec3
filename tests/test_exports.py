"""The public namespace of the package."""

import toriccode


def test_every_export_resolves():
    missing = [name for name in toriccode.__all__ if not hasattr(toriccode, name)]
    assert not missing
    assert len(set(toriccode.__all__)) == len(toriccode.__all__)
