"""Exact arithmetic for Brauer diagrams, the Brauer algebra, and the
tensor-invariant functor for orthogonal and symplectic groups."""

__version__ = "0.1.0"

from .diagram import (Diagram, DiagramError, ast, closure_loops, compose,
                      crossing_count, diagram_from_json, diagram_to_json,
                      enumerate_diagrams, identity, lower_diagram,
                      make_diagram, permutation_diagram, raise_diagram,
                      rotate_right, sharp, star, tensor)
from .words import (Layer, Word, WordError, evaluate_word, make_word,
                    synthesize_word, word_from_text, word_to_text)
from .rewrite import RULES, verify_relation_soundness
from .rings import (Poly, PolynomialsInDelta, PrimeField, QQ, QQ_DELTA,
                    Rationals, RingError, ring_from_name)
from .linear import (Morphism, MorphismError, from_diagram, identity_morphism,
                     integrality_check, lin_add, lin_ast, lin_compose,
                     lin_scale, lin_sub, lin_tensor, make_morphism,
                     morphism_from_json, morphism_to_json, reduce_mod_p,
                     specialize_delta, zero_morphism)
from .elements import (ElementError, antisymmetrizer_block, d_pq, e_i_j,
                       e_p_formula, e_p_rotation, f_p, from_permutation, phi,
                       sigma)
from .linalg import EliminationBasis, LinAlgError, nullspace_of_rows, rank_of_rows
from .functor import (ExactMatrix, FunctorError, GroupSpec, generator_matrices,
                      functor_matrix, functor_matrix_layered, group_spec,
                      matrix_to_json, trace_check)
from .invariants import (commutant_dimension, hom_rank, ideal_span_dimension,
                         kernel_basis, kernel_dimension, lie_generators,
                         tensor_ideal_span_dimension)
from .report import Check, all_passed, check, check_bool, report_json
from .verify import SUITE_NAMES, run_suite
