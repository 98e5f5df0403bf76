import switchem


def test_every_export_resolves_once():
    names = switchem.__all__
    assert sorted(set(names)) == sorted(names), "a name is exported twice"
    assert [n for n in names if not hasattr(switchem, n)] == []
