import logrewrite


def test_every_exported_name_resolves():
    missing = [name for name in logrewrite.__all__ if not hasattr(logrewrite, name)]
    assert not missing
    assert len(set(logrewrite.__all__)) == len(logrewrite.__all__)
