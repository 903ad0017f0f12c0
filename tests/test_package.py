import lwerng


def test_every_exported_name_resolves():
    assert all(hasattr(lwerng, name) for name in lwerng.__all__)
