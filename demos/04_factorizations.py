"""Certified factorizations: every claim ships with an exact recheck.

The pipeline: split an element by the sign of its cycle displacements,
straighten the signed parts into return maps times periodic corrections,
peel positive elements into return maps one index at a time, and write
each periodic element as a product of two reflections, which are
involutions.  The normal form needs none of these steps: it writes any
element as at most two periodic factors times the odometer power of its
index.  Each certificate recomposes its word and records the comparison
in ``verified``.
"""

import json

from odofull import (
    FullGroupElement,
    decompose_pnp,
    factor_periodic_into_involutions,
    factor_positive,
    normal_form,
    positivize,
)
from odofull.serialize import certificate_to_obj

u = FullGroupElement(2, [3, 1, -2, 2])
print("element:", u, "with index", u.index())

parts = decompose_pnp(u)
print("periodic part:", parts.periodic)
print("almost positive part:", parts.almost_positive)
print("almost negative part:", parts.almost_negative)

straightened = positivize(parts.almost_positive)
print("\npositivity domain:", straightened.domain)
print("straightened return map:", straightened.induced)
print("periodic quotient:", straightened.left_periodic)

cert = factor_positive(straightened.induced)
print("\nreturn-map word:", [list(f.domain.prefixes()) for f in cert.word])
print("word length equals the index:", len(cert.word) == straightened.induced.index())

cert = normal_form(u)
print("\nnormal form word kinds:", [f.kind for f in cert.word])
print("trailing odometer power:", cert.word[-1].power)
print("verified:", cert.verified)
print(json.dumps(certificate_to_obj(cert), indent=2))

three_cycle = FullGroupElement(2, [1, 1, -2, 0])
cert = factor_periodic_into_involutions(three_cycle)
print("\nthree-cycle as involutions:", [f.element for f in cert.word])
print("each factor squares to the identity:", all(
    (f.element * f.element).is_identity for f in cert.word
))
