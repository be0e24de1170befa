"""Deterministic cost counters for tier-1 tests.

A count of the Fraction objects a call makes, or of the C functions it
calls, does not depend on the machine, so a test can bound it where a
wall-clock bound would be loose.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

# Fraction.__new__ makes every Fraction on CPython 3.10 and 3.11; from 3.12 on,
# Fraction arithmetic makes its results through _from_coprime_ints instead.
_MAKERS = ("__new__", "_from_coprime_ints")


@contextmanager
def counting_fractions():
    """Yield a one-item list whose item counts the Fractions made inside the
    block; both makers are restored on exit."""
    count = [0]
    saved = {name: vars(Fraction)[name] for name in _MAKERS if name in vars(Fraction)}

    def counted(make):
        def wrapper(cls, *args, **kwargs):
            count[0] += 1
            return make(cls, *args, **kwargs)

        return wrapper

    Fraction.__new__ = counted(saved["__new__"].__func__)
    if "_from_coprime_ints" in saved:
        Fraction._from_coprime_ints = classmethod(counted(saved["_from_coprime_ints"].__func__))
    try:
        yield count
    finally:
        for name, maker in saved.items():
            setattr(Fraction, name, maker)


def fractions_made(fn, *args):
    """The number of Fractions that fn(*args) makes."""
    with counting_fractions() as count:
        fn(*args)
    return count[0]


def c_calls_made(fn, *args):
    """The number of C functions (builtins and methods of built-in types)
    that fn(*args) calls: the "c_call" events of a sys.setprofile hook, the
    previous hook restored afterwards."""
    count = [0]

    def profile(frame, event, arg):
        if event == "c_call":
            count[0] += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(saved)
    return count[0]
