"""hopfdy: exact computations with finite-dimensional Hopf algebras over QQ.

Davydov-Yetter cohomology dimensions (identity, R-twisted tensor, and
restriction complexes), Zariski tangent spaces to the variety of
R-matrices, Drinfeld doubles with their coefficient modules, and relative
Ext groups of induction-restriction pairs, with every number computed in
exact rational arithmetic.
"""

import importlib

# module -> its exported names; __getattr__ (PEP 562) imports a module at first use
_EXPORTS = {
    "exactlin": "SparseMatrix TensorElement kernel_basis span_equal unit_tensor",
    "algcore": "Algebra AlgebraMap ModuleRep hom_space induced_module "
               "module_from_character restrict_module tensor_algebra tensor_module "
               "verify_algebra verify_module",
    "hopfcore": "HopfAlgebra bk_inclusion build_bk build_cyclic catalog_hopf dual_hopf "
                "is_hopf_map iterated_coproduct tensor_hopf trivial_module verify_hopf",
    "double": "CoefficientModule DoubleAlgebra coeff_restriction coeff_tensor_product "
              "drinfeld_double ell_minus ell_plus",
    "dycomplex": "DYComplex cocycle_from_tangent decompose_h2_tensor identity_complex "
                 "restriction_complex tensor_complex",
    "rmatrix": "RMatrixReport TangentBasis bk_standard_tangent_basis bk_r0 bk_r_lambda "
               "check_rmatrix tangent_space tangent_span_matches",
    "relext": "Resolution ResolventPair adjunction_crosscheck_restriction "
              "adjunction_crosscheck_tensor get_resolution kunneth_check pair_from_double "
              "relative_ext_dims tensor_pair trivial_module_over verify_resolution",
    "hopffile": "hopf_from_json hopf_to_json load_hopf save_hopf",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_EXPORTS) + list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _OWNER:
        return getattr(__getattr__(_OWNER[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
