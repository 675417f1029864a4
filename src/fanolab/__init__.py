"""Exact-arithmetic workbench for Laurent polynomial mutations, classical
periods, and the lattice polytope geometry that connects them."""

from .laurent import (LaurentPolynomial, NotUnimodularError, ParseError,
                      RankMismatchError, ZeroPolynomialError,
                      exponent_lattice_index, format_polynomial,
                      parse_polynomial, substitute_unimodular)
from .mmlp import (CoefficientSpace, RigidityReport, SeedSet,
                   coefficient_space, is_rigid, seed_set)
from .mutation import (EnumerationResult, InvalidFactorError,
                       InvalidWeightError, MutationBounds, MutationData,
                       MutationWitness, NotMutable, canonicalize_shear,
                       enumerate_mutations, exact_divide, is_mutable, mutate,
                       shear_equivalent, weight_decomposition)
from .mutation_graph import (CorrespondenceReport, MutationGraph, build_graph,
                             export_dot, markov_tree, p2_correspondence_check)
from .periods import (classical_period, known_series, period_stream,
                      periods_agree)
from .polytopes import (DegeneratePolytopeError, DualPolytope,
                        LatticePolytope, NormalForm, NotSimplexError,
                        OriginNotInteriorError, dual_polytope, is_fano,
                        is_reflexive, lattice_points, newton_polytope,
                        normal_form, simplex_weights)
from .recurrence import (DifferentialOperator, PolynomialRecurrence,
                         fit_recurrence, to_differential_operator,
                         verify_recurrence)

__version__ = "0.1.0"
