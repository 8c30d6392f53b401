"""Exact coarse geometry of doubled-edge graphs, quotient trees, and the
quasi-isometries between them.

Everything is computed over rational arithmetic: distances, geodesics,
slim-triangle thinness, bottleneck certificates, tree pruning, coarse
inverses, and the end-to-end extraction of a transversal from a
quasi-isometry certificate.
"""

from .choice_pipeline import (
    ChoiceCertificate,
    extract_choice,
    pruning_rounds,
    required_gamma0_depth,
    section_map,
    verify_transversal,
)
from .coarse_analysis import (
    BottleneckReport,
    BottleneckWitness,
    DeltaReport,
    DeltaWitness,
    SeparationReport,
    certify_two_hyperbolic_gamma0,
    midpoint,
    slim_triangle_delta,
    verify_bottleneck,
)
from .coarse_maps import (
    PairViolation,
    QiCertificate,
    QuasiMap,
    SurjectivityViolation,
    compose,
    minimal_qi_constant,
    surjectivity_radius,
    verify_quasi_isometry,
)
from .errors import (
    ArmCollision,
    CapExceeded,
    CoarseGeomError,
    ConstantTooSmall,
    DepthError,
    DepthTooSmall,
    DisconnectedGraph,
    DomainNotNet,
    DuplicateElement,
    EmptyFamily,
    EmptyMemberSet,
    EmptyPreimage,
    FamilyMismatch,
    GraphMismatch,
    GraphStructureError,
    InternalError,
    InvalidPoint,
    LabelError,
    NoAlternateArm,
    NonPositiveScale,
    NotAGeodesic,
    NotATree,
    NotCoarselySurjective,
    NotQuasiIsometry,
    SchemaError,
    UnknownElement,
)
from .gamma_spaces import (
    GammaZeroGraph,
    LevelProfile,
    NamedSet,
    SetFamily,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    classify_point,
    find_far_witness,
    gamma1_edge_id,
    gamma1_vertex_id,
    level_of,
    level_profile,
)
from .metric_graph import (
    HALF,
    ONE,
    ZERO,
    Edge,
    Geodesic,
    GraphPoint,
    Interior,
    LabeledMetricGraph,
    Vertex,
    ball_complement_components,
    canonical_geodesic,
    check_geodesic,
    distance,
    enumerate_geodesics,
    half_net,
    is_separated,
    multi_source_vertex_distances,
    point_along,
    point_key,
    scale_metric,
    validate_point,
)
from .tree_ops import (
    PruneTrace,
    QuasiInverseResult,
    assert_tree,
    prune_k,
    quasi_inverse,
    round_trip_max,
    tree_median,
    tree_meet,
)

__version__ = "0.1.0"
