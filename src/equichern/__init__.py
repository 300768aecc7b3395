"""Equivariant Chern characters and index characters for orbitally augmented symbols.

The package computes, for circle-action models on flat spaces, the
equivariant Chern character of a symbol augmented by orbital Clifford
multiplication, evaluates index characters by fiberwise Gaussian
integration, expands them in character series, and checks membership in the
algebra of transversally-negative-order symbols.
"""

from .characters import (
    CharacterSeries,
    ahat_squared,
    ahat_squared_det_form,
    ahat_squared_series,
    geometric_expand,
    localized_index,
)
from .equivariant import (
    GaussianForm,
    PoleGuardError,
    bundle_character,
    chern_form,
    closedness_residual,
    equivariant_curvature,
    symbolic_chern,
    transverse_chern,
)
from .exterior import ExteriorAlgebra, Form, Poly
from .geometry import (
    ActionModel,
    BundleSpec,
    Coordinate,
    HomotopyPath,
    ScanGrid,
    augmented_symbol,
    builtin_model,
    c_plane,
    c_plane_uv,
    cartan_field,
    clifford_multiplication,
    ellipticity_scan,
    homotopy_path,
    infinitesimal_generator,
    moment,
    orbital_projection,
    zero_op_s1,
)
from .modelfile import ModelParseError, parse_model_file, parse_model_text
from .quadrature import (
    DivergenceError,
    IndexReport,
    delta_pairing,
    index_character,
    integrate_top_form,
    richardson_extrapolate,
)
from .supermatrix import (
    Grading,
    SuperMatrix,
    UnsupportedShapeError,
    exp_divided_difference,
    graded_commutator,
    super_exp,
    super_exp_duhamel,
)
from .symbolalg import (
    GridSpec,
    SymbolFunction,
    condition_c_fit,
    restriction_decay_check,
    transversal_ellipticity_check,
)

__version__ = "0.1.0"
