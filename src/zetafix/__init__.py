"""Exact fixed-point invariants and zeta functions of affine-induced
maps on infra-nilmanifolds and infra-solvmanifolds.

The core loop: describe a manifold by its holonomy matrices and a map
by its linear part, average determinants to get Lefschetz, Nielsen,
and Reidemeister numbers of all iterates, reconstruct their zeta
functions as exact rational functions, and verify the functional
equation, growth, radius, and congruence laws they satisfy.
"""

from .algebra import (EigenClassification, Polynomial, RationalMatrix,
                      as_rational, char_poly, classify_eigenvalues, det,
                      exterior_power, has_root_of_unity_eigenvalue,
                      max_root_of_unity_order, poly_gcd, spectral_isolation)
from .congruences import (CongruenceReport, check_dold_lefschetz, check_euler,
                          check_gauss, mobius)
from .errors import (DegenerateFixedSet, DimensionMismatch,
                     InfinityInSequence, InsufficientTerms,
                     InvalidSpecFile, NielsenFormulaMismatch, NonAcyclicBundle,
                     NonIntegralLefschetz, NonIntegralNielsen,
                     NonInvariantSubspace, NotAGroup, NotBlockCompatible,
                     NotConstantRatio, NotCyclic, NotRational,
                     OutOfFloatRange, RadiusMismatch, TrichotomyMismatch,
                     ZetaUndefined, ZetafixError)
from .fixtures import (SequenceFixture, builtin_fixtures, klein_type,
                       load_fixture, sol_r_sequence)
from .invariants import (CoincidenceNumbers, Construction, CyclicDecomposition,
                         TrichotomyReport, ZetaResult, coincidence_numbers,
                         coincidence_trichotomy, cyclic_decomposition,
                         default_degree_bound, lefschetz, lefschetz_sequence,
                         nielsen, nielsen_sequence, reidemeister,
                         reidemeister_sequence, torus_periodic_points)
from .manifolds import (AffineMapSpec, ManifoldSpec, PlusSplit,
                        ValidationReport, ZetaDefinedness,
                        compute_plus_split, ensure_compatible,
                        exterior_ranks, is_virtually_unipotent,
                        reidemeister_zeta_defined, validate_spec)
from .ratfunc import (RationalFunction, SequenceOracle, format_polynomial,
                      radius_of_convergence, zeta_from_terms)
from .report import (asymptotics_entry, build_report,
                     congruence_entries, render_human)
from .specio import (ParsedSpec, SpecOptions, parse_spec_data,
                     parse_spec_file, serialize_spec)
from .zetas import (FunctionalEquationReport, artin_mazur_zeta, asymptotic_nielsen,
                    entropy_lower_bound, lefschetz_zeta, nielsen_zeta,
                    radius_report, reidemeister_zeta, torsion_special_value,
                    verify_functional_equation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
