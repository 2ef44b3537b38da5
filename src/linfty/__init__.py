"""Exact constructors and Maurer-Cartan checkers for derived-bracket algebras."""

from .signs import DegreeVector, iter_shuffles, koszul_sign
from .superfield import (
    ChartMismatchError,
    CoordinateChart,
    SuperFunction,
    SuperVectorField,
    apply,
    is_homological,
    super_commutator,
)
from .valgebra import (
    ExtElement,
    LInftyElement,
    MCDelta,
    SeriesCapExceeded,
    VAlgebra,
    check_linfty_axioms,
    check_v_algebra,
    derived_bracket,
    extended_bracket,
    mc_residual,
    twisted_projection,
)
from .algebroid import (
    AlgebroidData,
    CEForm,
    Derivation,
    build_xq,
    ce_differential,
    deformation_residual,
    derivation_bracket,
    derivation_to_field,
    dgla_cohomology,
    field_to_derivation,
    validate_algebroid,
)
from .subalgebroid import (
    DeformationPair,
    FrameForm,
    SplitSetup,
    encode_deformation,
    explicit_structure_maps,
    graph_closure_oracle,
    m1_cohomology,
    simultaneous_residual,
    subalgebroid_mc_residual,
    tangency_oracle,
)
from .applications import (
    FoliationSetup,
    HomomorphismData,
    LieAlgebraData,
    foliation_infinitesimal,
    homomorphism_deformation,
    lie_algebra_deformation,
    simultaneous_homomorphism,
    subalgebra_deformation,
)
from .instances import InstanceError, parse_instance, serialize_instance

__version__ = "0.1.0"
