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
    LInftyElement,
    MCDelta,
    SeriesCapExceeded,
    check_linfty_axioms,
    derived_bracket,
    mc_residual,
    twisted_projection,
)
from .algebroid import (
    AlgebroidData,
    build_xq,
    dgla_cohomology,
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
    foliation_infinitesimal,
    simultaneous_homomorphism,
)
from .instances import InstanceError, parse_instance, serialize_instance

__version__ = "0.1.0"
