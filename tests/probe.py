"""The tests' one memory probe.  :func:`traced` gives the ``tracemalloc``
peak of a block; :func:`allocates_nothing` also holds that peak under
1 MiB and fails the test if the block reaches ``tensor._zeros``, whose
private mappings ``tracemalloc`` cannot see.  Wrap only the call measured,
never the building of its inputs.  :func:`slicing_forced` sets the line at
which arrays are mapped and traces sliced."""

import importlib
import pkgutil
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from soclab import tensor

NOTHING = 1 << 20


@contextmanager
def traced():
    """The block's ``tracemalloc`` peak in bytes, as ``.peak`` of the object
    yielded once the block has run."""
    got = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield got
        got.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refuse(*args, **kwargs):
    pytest.fail("allocated before checking")


@contextmanager
def allocates_nothing():
    """:func:`traced`, with the peak held under :data:`NOTHING`, and every
    soclab module's name for ``tensor._zeros`` failing the test if called."""
    modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules([str(Path(tensor.__file__).parent)], "soclab.")]
    bound = [(m, name) for m in modules for name, value in vars(m).items() if value is tensor._zeros]
    with pytest.MonkeyPatch.context() as mp:
        for module, attr in bound:
            mp.setattr(module, attr, _refuse)
        with traced() as got:
            yield got
    assert got.peak < NOTHING, f"peak of {got.peak} bytes, not under {NOTHING}"


@contextmanager
def slicing_forced():
    """Every trace that keeps a factor, not of a stack, and that one einsum
    would make out of C order written slice by slice, and every nonempty
    ``tensor._zeros`` array mapped: the line at one byte, and no plan made
    under the old line kept before or after."""
    line = tensor.HUGE_PAGE_BYTES
    tensor.HUGE_PAGE_BYTES = 1
    tensor._trace_plan.cache_clear()
    try:
        yield
    finally:
        tensor.HUGE_PAGE_BYTES = line
        tensor._trace_plan.cache_clear()
