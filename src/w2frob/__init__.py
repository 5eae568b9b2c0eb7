"""Exact verification of Frobenius lifts over length-2 Witt vectors.

Layers, bottom up:

* ``witt2``: F_q and W2(F_q) as Galois rings on one integer kernel
  (W2(F_p) is Z/p^2), with the division-by-p isomorphism.
* ``polyalg``: sparse exact multivariate Laurent polynomials, matrices,
  determinants that build each minor once.
* ``froblift``: Frobenius lifts on affine charts, the eta difference
  calculus, the phi matrix / determinant and the column-sum lemma.
* ``projline``: the two-chart degree-bound criterion on the projective
  line over a base, and its one check (extension and F(x)*F(y) = 1),
  which ``sweeps.sweep_p1`` runs.
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
    poly_from_str,
    poly_to_str,
    reduce_mod_p,
    substitute,
)
from .projline import extend_chart, verify_p1_lift
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
    witt_to_residue_ring,
    witt_to_str,
)

__version__ = "0.1.0"
