import os
import subprocess
import sys
import types

import alexlab
from alexlab._value import Value


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


def test_public_classes_are_slotted_values():
    # Every public class but LaurentPoly and the exceptions is a `Value`,
    # and its instances carry no `__dict__`.
    classes = [getattr(alexlab, name) for name in alexlab.__all__]
    classes = [c for c in classes if isinstance(c, type) and not issubclass(c, Exception)]
    values = [c for c in classes if c is not alexlab.LaurentPoly]
    assert len(values) == 16
    for cls in values:
        assert issubclass(cls, Value), cls
        assert not hasattr(cls.__new__(cls), "__dict__"), cls


def test_importing_the_cli_loads_no_dataclasses_inspect_argparse_or_gettext():
    # -S keeps site's own imports out of the count; the path is the one
    # this alexlab was imported from.
    src = os.path.dirname(os.path.dirname(alexlab.__file__))
    code = (
        "import sys; sys.path.insert(0, %r); import alexlab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules)))" % src
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
