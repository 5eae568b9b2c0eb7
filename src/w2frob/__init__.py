"""Exact verification of Frobenius lifts over length-2 Witt vectors.

Layers, bottom up:

* ``witt2``: F_q, Z/p^2 and W2(F_q) as Galois rings on one integer
  kernel, with the division-by-p isomorphism.
* ``polyalg``: sparse exact multivariate Laurent polynomials, matrices,
  cofactor determinants, the low-exponent decomposition.
* ``froblift``: Frobenius lifts on affine charts, the eta difference
  calculus, the phi matrix / determinant and the column-sum lemma.
* ``projline``: the two-chart degree-bound criterion on the projective
  line over a base.
* ``ruled``: four-chart standard lifts on ruled surfaces over toric
  bases, gluing verification and base-lift extraction.
* ``classify``: the surface classification theorem as a decision
  procedure, grounded by Hasse-invariant / point-count ordinarity.
* ``cli``: the ``frobctl`` command.
"""

from .classify import (
    SurfaceDescriptor,
    Verdict,
    WeierstrassCurve,
    classify_surface,
    golden_table,
    hasse_invariant,
    is_ordinary_curve,
)
from .errors import (
    AlgebraError,
    CharMismatch,
    DegreeTooHigh,
    DescriptorError,
    InvariantViolation,
    NotDivisible,
    ParseError,
    RangeError,
    RingMismatch,
    ShapeError,
    SingularCurve,
    UnitError,
    UnsupportedField,
    UnsupportedShape,
)
from .froblift import (
    AffineChartLift,
    CheckResult,
    EtaFunction,
    apply_lift,
    eta_axioms_check,
    eta_between,
    lift_from_json,
    lift_to_json,
    monomial_lemma_check,
    phi_det,
    phi_matrix,
    standard_lift,
    top_monomial,
)
from .polyalg import (
    Poly,
    PolyMatrix,
    canonical_lift,
    divide_by_p,
    embed_times_p,
    frobenius_substitute,
    invert_unit,
    low_decomposition,
    poly_from_str,
    poly_to_str,
    reduce_mod_p,
    substitute,
)
from .projline import P1Lift, extend_chart, lift_space_dimension, verify_p1_lift
from .ruled import (
    BaseLift,
    BaseLiftExtraction,
    RuledLift,
    TransitionData,
    base_glue_consistency,
    build_standard_lift,
    extract_base_lift,
    hirzebruch_transition,
    standard_base_lift,
    verify_gluing,
)
from .witt2 import (
    GF,
    W2,
    FiniteField,
    FqElem,
    WittPair,
    WittRing,
    Zp2Elem,
    Zp2Ring,
    witt_from_str,
    witt_to_residue_ring,
    witt_to_str,
)

__version__ = "0.1.0"
