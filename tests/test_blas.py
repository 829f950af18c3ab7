"""The one-thread BLAS pin; test_torus_and_orbit_suites_leave_scipy_unloaded
shows that it loads no scipy."""

import pytest
import scipy  # noqa: F401  the pin sets scipy's OpenBLAS once scipy is loaded

from semiclass_lab._blas import _threads, one_blas_thread


def test_pin_runs_both_builds_at_one_thread_and_restores_them():
    """Both builds are set to 2 threads first, so that a restore shows; the
    second pin's body raises."""
    gets, sets = zip(_threads("numpy"), _threads("scipy"))
    before = [get() for get in gets]
    try:
        for set_ in sets:
            set_(2)
        with one_blas_thread():
            assert [get() for get in gets] == [1, 1]
        assert [get() for get in gets] == [2, 2]
        with pytest.raises(RuntimeError), one_blas_thread():
            assert [get() for get in gets] == [1, 1]
            raise RuntimeError
        assert [get() for get in gets] == [2, 2]
    finally:
        for set_, count in zip(sets, before):
            set_(count)
