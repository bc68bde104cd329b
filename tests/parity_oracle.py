"""The parity vector of a group function, the oracle for half-sum integrality.

The library reads integrality off the Walsh spectrum (``S(chi) = S(0)``
mod 4 for every character); this XOR over the odd-valued elements is the
independent route to the same fact.
"""


def parity_vector(d):
    """XOR of all group elements where ``d`` takes an odd value.

    This is the obstruction to halving the character sums of ``d``: every
    half-sum (over an affine hyperplane) is integral iff the result is 0.
    """
    acc = 0
    for g, value in enumerate(d):
        if value & 1:
            acc ^= g
    return acc
