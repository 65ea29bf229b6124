import spherical


def test_all_is_sorted_unique_and_resolves():
    names = spherical.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(spherical, name)]
    assert missing == []
