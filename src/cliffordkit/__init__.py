"""cliffordkit: exact Clifford algebra kernel and symbolic state calculus.

Its records (signatures, ring tags, idempotents, algebra types, witnesses,
states, cone rows) are immutable `typing.NamedTuple`s, and a record that
checks a field does so in `__new__`, through which its `_make` and
`_replace` also build, so that every construction runs it;
`DiscreteSymmetry`, read once per map and probe, is a slotted class.
"""

from .core import (CliffordAlgebra, Multivector, QC, Signature, as_signature,
                   blade_name, center_basis, clifford, conjugation,
                   even_subalgebra_basis, grade, grade_involution,
                   pseudo_automorphism, reversion, volume_element)
from .classify import (AlgebraType, classify, classify_complex,
                       division_ring_of, division_ring_oracle,
                       omega_square_sign)
from .ideals import (Idempotent, idempotent_factor_count,
                     idempotent_from_factors, is_primitive, left_ideal_basis,
                     max_commuting_square_set, paper_idempotents,
                     primitive_idempotent, radon_hurwitz, spinor_dimension)
from .factorize import (FactorChain, IsoError, PAPER_CHAINS, SemisimpleSplit,
                        TensorAlgebra, complex_doubling_iso, complexify,
                        even_subalgebra_iso, karoubi_factorize,
                        split_semisimple, tensor_algebra, verify_tensor_iso)
from .automorphisms import (ALL_SYMMETRIES, DiscreteSymmetry,
                            composition_table, group_structure, symmetry)
from .rings import PRINTED_TRANSITIONS, RingTag, StateRingTag, ring_transition
from .states import (FusionResult, Sector, StateSum, StateVector,
                     additive_spin, annihilate, conjugate, double,
                     fundamental_states, fuse, fuse_detailed, mass,
                     named_states, parse_state, state, superposable)
from .cone import ConeRow, ReprLabel, degree, enumerate_cone, sym_dimension_oracle

__version__ = "0.1.0"
