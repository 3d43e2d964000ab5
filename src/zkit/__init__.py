"""zkit: constructive Zariski-lattice machinery over computable rings.

Decidable Zariski lattices, single-element localizations as rings,
unimodular covers with Bezout certificates, element and hom gluing, and
compact opens of affine schemes with enumerable point sets, over Z, Z/n
and polynomial quotients of Q and prime fields.  Every positive decision
carries a witness that re-verifies by plain ring arithmetic.
"""

from .errors import (BaseMismatch, CodomainNotFinite, IncompatibleFamily,
                     InvalidRing, InvalidWitness, InvariantViolated,
                     NonInvertibleDenominator,
                     NotUnimodular, NotWellDefined, ResourceExceeded,
                     RingMismatch, ScriptSyntaxError, TypeMismatch,
                     UnknownName, UnknownVariable, UnsupportedBase,
                     ZkitError)
from .gluing import (CompatibleFamily, CompatibleHomFamily, UnimodularCover,
                     check_compatibility, glue_element, glue_hom, make_cover,
                     make_family, make_hom_family, pullback_cover,
                     restrict_element, restrict_hom)
from .ideals import (BezoutCertificate, FinGenIdeal, GroebnerBasis,
                     fin_gen_ideal, groebner, ideal_member, power_certificate,
                     radical_member, radical_witness, saturates,
                     saturation_member, unimodular_certificate)
from .lattice import (ZarElt, lattice_morphism, pushdown, restrict, support_D,
                      zar_bottom, zar_elt, zar_eq, zar_eq_top, zar_join,
                      zar_leq, zar_meet, zar_top)
from .limits import Limits, current_limits, limits, set_limits
from .localization import (Fraction, LocalizedRing, canonical_map,
                           double_localization_maps, frac_eq,
                           from_presentation, localize, to_presentation,
                           universal_property)
from .poly import PolyContext, PrimeField, Rationals, is_prime
from .rings import (IntegerRing, QuotientRing, ResidueRing, RingElement,
                    RingHom, enumerate_homs, hom_apply, hom_compose,
                    identity_hom, is_unit, make_hom, normalize,
                    polynomial_ring, quotient_by)
from .schemes import (AffineCover, AffineScheme, CompactOpen, QcqsReport,
                      SchemePoint, affine_cover, compact_open,
                      empty_open, function_eval, locality_trial,
                      point_from_localized_hom,
                      point_membership, point_to_localized_hom, points_over,
                      qcqs_certificate, standard_open, whole_scheme)

__version__ = "0.1.0"
