"""Finite classical polar spaces: fields, forms, geometries, embeddings,
and exhaustive or seeded verification of their subspace properties."""

__version__ = "0.1.0"

from .field import Field, field_make
from .forms import (
    QuadraticForm,
    SesquilinearForm,
    eval_form,
    eval_quadratic,
    polarize,
    quadratic_form,
    radical_of_form,
    radical_of_quadratic,
    sesquilinear_form,
    trace_valued_check,
    witt_index,
)
from .polar import (
    PartialFrame,
    PointSet,
    PolarSpace,
    build_polar_space,
    check_partial_frame,
    closure,
    extend_frame,
    find_partial_frame,
    frame_span,
    generating_points,
    is_hyperplane,
    is_maximal_subspace,
    is_subspace,
    perp,
    radical_of_subspace,
    rank_nd,
    rank_of,
)
from .embed import (
    Embedding,
    arises_from,
    hull_of_symplectic_char2,
    minimal_generating_subset,
    natural_embedding,
    preimage,
    projective_span,
    quotient_embedding,
    universal_embedding,
)
from .verify import (
    CheckReport,
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
    explore_problem5,
    search_nonarising_rank1,
)
from .catalog import build_preset, preset_text
from .specfile import SpaceSpec, build_space_from_spec, format_spec, parse_spec
