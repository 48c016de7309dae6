import types

import alexlab


def test_all_lists_exactly_the_public_names():
    # A name removed from the package leaves `__all__` with it, and a new
    # public name is listed there.
    public = {
        name
        for name, value in vars(alexlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(alexlab.__all__) == len(set(alexlab.__all__))
    assert set(alexlab.__all__) == public
