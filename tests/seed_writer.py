"""Frozen copy of the original per-set native writer, the reference for
the byte-equality tests of the block writer in setcoverlab.instance.

Do not edit: the tests compare against exactly these bytes.
"""

from fractions import Fraction
from itertools import pairwise

from setcoverlab.instance import NATIVE_MAGIC, NATIVE_VERSION, Instance, _arrays, validate


def format_weight(w) -> str:
    """Integral weights print bare; everything else prints as "p/q"."""
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


def write_native(instance: Instance) -> str:
    """Emit the native format; inverse of parse_native on valid instances."""
    validate(instance)
    lines = [f"{NATIVE_MAGIC} {NATIVE_VERSION}", f"{instance.m} {instance.n}"]
    indptr, elements, (nums, denom) = _arrays(instance)
    weights = [Fraction(p, denom) for p in nums]  # the held weights, as the API's Fractions
    for (a, b), weight in zip(pairwise(indptr.tolist()), weights):  # one set's ints at a time
        ids = map(str, elements[a:b].tolist())
        lines.append(" ".join([format_weight(weight), str(b - a), *ids]))
    return "\n".join(lines) + "\n"
