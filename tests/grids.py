"""Temperature grids for the tests, in pure Python."""

import math


def logspace(lo: float, hi: float, n: int) -> list:
    """n floats from lo to hi, evenly spaced in log10: 10^(start + i step)
    with start = log10(lo) and step = (log10(hi) - start) / (n - 1), the
    last exponent exactly log10(hi), as numpy's logspace takes them."""
    start, stop = math.log10(lo), math.log10(hi)
    step = (stop - start) / (n - 1)
    return [10.0 ** (i * step + start) for i in range(n - 1)] + [10.0 ** stop]
