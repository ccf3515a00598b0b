"""The GL(n) scene: chart, invariant frames and the bi-invariant connection.

Coordinates x_ij (1 <= i, j <= n) on the matrices.  The left-invariant
frame E+_rs = sum_i x_ir d/dx_is carries the matrix-unit product
E_pq E_rs = delta_qr E_ps; the connection it defines is flat and
bi-invariant.  The right-invariant fields are E-_rs = sum_i x_si d/dx_ri,
and the n^4 linear fields x_sp d/dx_rq are the ambient space the envelope
lives in.  `frame_order` lists the (r, s) pairs in the order the frame and
its structure constants use; every order yields the same connection.
"""
from __future__ import annotations

from itertools import product as iproduct

from flataffine import (
    Chart,
    Frame,
    RationalFunction,
    SCAlgebra,
    VectorField,
    connection_from_frame,
)


class GLnScene:
    """GL(n) with its invariant frames and linear fields; n >= 1."""

    def __init__(self, n: int, frame_order=None):
        self.n = n
        self.chart = Chart(f"gl{n}", tuple(f"x{i}{j}" for i in range(1, n + 1)
                                           for j in range(1, n + 1)))
        self.pairs = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
        order = list(frame_order) if frame_order is not None else self.pairs
        if sorted(order) != self.pairs:
            raise ValueError("frame_order must list every (r, s) pair once")
        self.frame_pairs = order
        names = [f"E{r}{s}" for (r, s) in order]
        products = {}
        for (p, q) in order:
            for (r, s) in order:
                if q == r:
                    products[(f"E{p}{q}", f"E{r}{s}")] = {f"E{p}{s}": 1}
        self.constants = SCAlgebra.from_products(names, products)
        self.frame = Frame([self.e_plus(r, s) for (r, s) in order])
        self.quads = list(iproduct(range(1, n + 1), repeat=4))
        self.f_names = [f"x{s}{p}d{r}{q}" for (p, q, r, s) in self.quads]
        self.f_fields = [self.f_field(p, q, r, s) for (p, q, r, s) in self.quads]

    def connect(self):
        """The connection nabla_{E+a} E+b = E+a E+b of the frame (a fresh object)."""
        return connection_from_frame(self.frame, self.constants)

    def _zero_coeffs(self):
        return [RationalFunction.zero(self.chart) for _ in range(self.chart.dim)]

    def _var(self, i, j):
        return RationalFunction.variable(self.chart, f"x{i}{j}")

    def _axis(self, i, j):
        return self.chart.axis(f"x{i}{j}")

    def e_plus(self, r, s) -> VectorField:
        coeffs = self._zero_coeffs()
        for i in range(1, self.n + 1):
            coeffs[self._axis(i, s)] = self._var(i, r)
        return VectorField(self.chart, coeffs)

    def e_minus(self, r, s) -> VectorField:
        coeffs = self._zero_coeffs()
        for i in range(1, self.n + 1):
            coeffs[self._axis(r, i)] = self._var(s, i)
        return VectorField(self.chart, coeffs)

    def f_field(self, p, q, r, s) -> VectorField:
        """x_{sp} * d/dx_{rq}."""
        coeffs = self._zero_coeffs()
        coeffs[self._axis(r, q)] = self._var(s, p)
        return VectorField(self.chart, coeffs)

    def invariant_fields(self):
        """Names and fields: the n^2 left-invariant E+ then the n^2 right-invariant E-."""
        names = [f"E+{r}{s}" for (r, s) in self.pairs]
        names += [f"E-{r}{s}" for (r, s) in self.pairs]
        fields = [self.e_plus(r, s) for (r, s) in self.pairs]
        fields += [self.e_minus(r, s) for (r, s) in self.pairs]
        return names, fields
