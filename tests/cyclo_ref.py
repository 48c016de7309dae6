"""Reference ring Z[zeta_m] for the tests, with no division.

An element is its integer coefficients on 1, zeta, .., zeta^(phi(m)-1),
the residue mod Phi_m that `laurent.evaluate_at_character` returns.  A
product is the dense product of the coefficient lists, then reduced by long
division by the monic Phi_m.  Ranks at a character are checked against
minors expanded in this ring, so it shares no elimination with `cv`.
"""

from alexlab import laurent


def _reduce(order, coeffs) -> tuple:
    """The remainder of the dense list `coeffs` mod Phi_order."""
    phi = laurent._cyclotomic_coeffs(order)
    n = len(phi) - 1
    r = list(coeffs) + [0] * (n - len(coeffs))
    for k in range(len(r) - 1, n - 1, -1):
        f = r[k]
        if f:
            for j, y in enumerate(phi):
                r[k - n + j] -= f * y
    return tuple(r[:n])


def dense_mul(a, b) -> list:
    """Product of two dense coefficient lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


class Cyclo:
    """An element of Z[zeta_order]; an int operand on the right is embedded."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = _reduce(order, coeffs)

    @classmethod
    def at(cls, p, rho):
        """p's value at the character rho, read from `evaluate_at_character`."""
        return cls(laurent.character_order(rho), laurent.evaluate_at_character(p, rho))

    def _lift(self, other):
        if isinstance(other, Cyclo):
            assert other.order == self.order
            return other
        return Cyclo(self.order, [other])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        o = self._lift(other)
        return Cyclo(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return Cyclo(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        return Cyclo(self.order, dense_mul(self.coeffs, self._lift(other).coeffs))

    def __eq__(self, other):
        return self.coeffs == self._lift(other).coeffs
