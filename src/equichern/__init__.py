"""Equivariant Chern characters and index characters for orbitally augmented symbols.

The package computes, for circle-action models on flat spaces, the
equivariant Chern character of a symbol augmented by orbital Clifford
multiplication, evaluates index characters by fiberwise Gaussian
integration, expands them in character series, and checks membership in the
algebra of transversally-negative-order symbols.

The public names below load their submodule on first use (PEP 562), so
importing the package, or one submodule, compiles and runs only the modules
that are used.  Each command compiles only the code it runs:
``equichern.cli`` parses and dispatches and loads no engine module until a
command runs, and each command's body sits beside the engine code it calls
(``run-example c-plane`` in ``quadrature``, ``run-example zero-op`` in
``pairing``, ``check-symbol`` in ``symbolalg``, ``report`` in ``report``).
The dense route never loads the quadrature, the scan or the model parser,
the delta pairing loads neither the quadrature nor the character series, the
ellipticity scan (``scan``) loads only with ``check-symbol``, and
``homotopy`` (the c-plane model and its homotopy to the normal form),
``pointwise`` (the pointwise Chern form from the compiled Chern plan, its
numeric fold at one theta and the one scalar evaluator) and ``kernels``
(``taylor_exp``, the one dense exponential, which ``super_exp`` runs, and
the oracles) load with no command.

numpy is loaded by ``kernels``, ``scan`` and ``symbolalg`` at import, by
``polyeval`` with its first compiled table (the grid evaluator of
polynomials), and by nothing else.  The models (which compile nothing: the
pointwise Chern form builds a curvature pair's Chern plan in
``pointwise``), the Chern plan, the pointwise Chern form's plan side, the
scalar evaluation of polynomials and forms, the fiber integration, the
character series and the delta pairing are plain Python, so
``run-example c-plane`` (the index character), ``run-example zero-op``
(the delta pairing) and ``chern_form`` on a pair the plan takes run without
numpy; that dense route loads neither ``kernels`` nor ``polyeval`` (a point
is completed by ``ring.full_point``).  A symbol is a matrix of polynomials
of the coordinate ring (``ring``); forms (``exterior``) and supermatrices
(``supermatrix``) are built only for a superconnection's curvature, so
``check-symbol`` loads neither.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "c_plane_uv": "augmentation",
    **dict.fromkeys(("CharacterSeries", "ahat_squared", "localized_index"), "characters"),
    **dict.fromkeys(("GaussianForm", "PoleGuardError", "bundle_character", "chern_form",
                     "equivariant_curvature", "symbolic_chern", "transverse_chern"),
                    "equivariant"),
    "Form": "exterior",
    **dict.fromkeys(("ActionModel", "BundleSpec", "Coordinate", "augmented_symbol",
                     "builtin_model", "cartan_field", "moment"), "geometry"),
    **dict.fromkeys(("HomotopyPath", "c_plane", "clifford_multiplication", "homotopy_path"),
                    "homotopy"),
    **dict.fromkeys(("closedness_residual", "super_exp_duhamel"), "kernels"),
    **dict.fromkeys(("ModelParseError", "parse_model_file", "parse_model_text"), "modelfile"),
    **dict.fromkeys(("delta_pairing", "richardson_extrapolate", "zero_op_s1"), "pairing"),
    **dict.fromkeys(("DivergenceError", "IndexReport", "index_character",
                     "integrate_top_form"), "quadrature"),
    **dict.fromkeys(("ExteriorAlgebra", "Poly", "UnsupportedShapeError"), "ring"),
    **dict.fromkeys(("ScanGrid", "ellipticity_scan"), "scan"),
    **dict.fromkeys(("Grading", "SuperMatrix", "exp_divided_difference", "super_exp"),
                    "supermatrix"),
    **dict.fromkeys(("SymbolFunction", "condition_c_fit", "infinitesimal_generator",
                     "orbital_projection", "restriction_decay_check",
                     "transversal_ellipticity_check"), "symbolalg"),
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
