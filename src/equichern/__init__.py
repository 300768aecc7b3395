"""Equivariant Chern characters and index characters for orbitally augmented symbols.

The package computes, for circle-action models on flat spaces, the
equivariant Chern character of a symbol augmented by orbital Clifford
multiplication, evaluates index characters by fiberwise Gaussian
integration, expands them in character series, and checks membership in the
algebra of transversally-negative-order symbols.

The public names below load their submodule on first use (PEP 562), so
importing the package, or one submodule, compiles and runs only the modules
that are used: ``equichern.cli`` loads no engine module until a subcommand
runs, the dense route never loads the quadrature, the scan or the model
parser, the delta pairing (``pairing``) loads neither the quadrature nor
the character series, and the ellipticity scan (``scan``) loads only with
``check-symbol``.

numpy is loaded by ``kernels`` (the dense Chern exponential, grid
evaluation of compiled polynomials, component arrays), ``scan`` and
``symbolalg``, and by nothing else at import.  The models (which compile
nothing: the dense route compiles a curvature in ``kernels``), the Chern
plan, the fiber integration, the character series and the delta pairing are
plain Python, so ``run-example c-plane`` (the index character) and
``run-example zero-op`` (the delta pairing) run without numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("CharacterSeries", "ahat_squared", "localized_index"), "characters"),
    **dict.fromkeys(("GaussianForm", "PoleGuardError", "bundle_character", "chern_form",
                     "closedness_residual", "equivariant_curvature", "symbolic_chern",
                     "transverse_chern"), "equivariant"),
    **dict.fromkeys(("ExteriorAlgebra", "Form", "Poly"), "exterior"),
    **dict.fromkeys(("ActionModel", "BundleSpec", "Coordinate", "HomotopyPath",
                     "augmented_symbol", "builtin_model", "c_plane", "c_plane_uv",
                     "cartan_field", "clifford_multiplication", "homotopy_path",
                     "infinitesimal_generator", "moment", "orbital_projection",
                     "zero_op_s1"), "geometry"),
    **dict.fromkeys(("ModelParseError", "parse_model_file", "parse_model_text"),
                    "modelfile"),
    **dict.fromkeys(("delta_pairing", "richardson_extrapolate"), "pairing"),
    **dict.fromkeys(("DivergenceError", "IndexReport", "index_character",
                     "integrate_top_form"), "quadrature"),
    **dict.fromkeys(("ScanGrid", "ellipticity_scan"), "scan"),
    **dict.fromkeys(("Grading", "SuperMatrix", "UnsupportedShapeError",
                     "exp_divided_difference", "graded_commutator", "super_exp",
                     "super_exp_duhamel"), "supermatrix"),
    **dict.fromkeys(("SymbolFunction", "condition_c_fit",
                     "restriction_decay_check", "transversal_ellipticity_check"),
                    "symbolalg"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
