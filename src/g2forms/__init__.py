"""Exact-arithmetic invariant forms on reductive homogeneous spaces.

The package computes bases of isotropy-invariant differential forms from
Lie-theoretic data, applies the coset-space exterior differential, and
decides G2 and SU(3) structure conditions (definiteness, closedness,
coclosedness, Hitchin stability, torsion flags) entirely over the
rationals.  A catalog of bundled homogeneous-space cases with expected
values ships with the package; see :mod:`g2forms.catalog` and the CLI.
"""

from g2forms.exterior import AltForm
from g2forms.scalars import PolyScalar, Rational

__version__ = "0.1.0"

__all__ = ["AltForm", "PolyScalar", "Rational", "__version__"]
