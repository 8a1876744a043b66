"""cliffordkit: exact Clifford algebra kernel and symbolic state calculus.

Its records (signatures, ring tags, idempotents, algebra types, witnesses,
states, cone rows) are immutable `typing.NamedTuple`s, and a record that
checks a field does so in `__new__`, through which its `_make` and
`_replace` also build, so that every construction runs it;
`DiscreteSymmetry`, read once per map and probe, is a slotted class.

Names load on first use: reading a name of `_EXPORTS`, or a submodule,
imports its module and binds the value here, so `import cliffordkit`
compiles only the layers a caller touches.  The import system binds a
submodule on its package whenever anything imports it; the module class
below refuses that for an exported name, so `classify` stays the function.
"""

import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "core": """CliffordAlgebra Multivector QC Signature as_signature blade_name
        center_basis clifford conjugation even_subalgebra_basis grade
        grade_involution pseudo_automorphism reversion volume_element""",
    "classify": """AlgebraType classify classify_complex division_ring_of
        division_ring_oracle omega_square_sign""",
    "ideals": """Idempotent idempotent_factor_count idempotent_from_factors
        is_primitive left_ideal_basis max_commuting_square_set
        paper_idempotents primitive_idempotent radon_hurwitz spinor_dimension""",
    "factorize": """FactorChain IsoError PAPER_CHAINS SemisimpleSplit
        TensorAlgebra complex_doubling_iso complexify even_subalgebra_iso
        karoubi_factorize split_semisimple tensor_algebra verify_tensor_iso""",
    "automorphisms": """ALL_SYMMETRIES DiscreteSymmetry composition_table
        group_structure symmetry""",
    "rings": "PRINTED_TRANSITIONS RingTag StateRingTag ring_transition",
    "states": """FusionResult Sector StateSum StateVector additive_spin
        annihilate conjugate double fundamental_states fuse fuse_detailed mass
        named_states parse_state state superposable""",
    "cone": "ConeRow ReprLabel degree enumerate_cone sym_dimension_oracle",
    "exactla": "",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}
__all__ = sorted({*_EXPORTS, *_OWNER})


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's path, so that `python -X importtime` lists it
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _OWNER:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
