import inspect

import wavekit


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(wavekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(wavekit.__all__) == public
    assert len(wavekit.__all__) == len(set(wavekit.__all__))
