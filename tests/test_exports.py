"""The package's public names."""

import fairmix


def test_every_export_resolves_once():
    names = fairmix.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fairmix, name), name
