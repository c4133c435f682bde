"""Exact-arithmetic models of loop-space quotients of the 4-sphere and the
split E-series Lie algebra symmetries acting on them."""

from .algebra import (Element, Generator, INHOMOGENEOUS, Monomial,
                      UniverseError, monomial_product)
from .dgca import (CheckReport, Dgca, DgcaHom, cyclification_model,
                   d_squared_zero, free_loop_model, hom0_check, is_chain_map,
                   model_over_w, model_s4, monomial_weight, semifree_model,
                   toroidify, weight_of)
from .derivations import (Derivation, DerivationSpaceBasis, bracket,
                          commutes_with_differential, derivation_basis,
                          s_derivation)
from .cartan import (CartanMatrix, ParabolicSplit, RootSystem,
                     cartan_matrix, parabolic_split, positive_roots,
                     simple_roots)
from .action import (ChevalleyAction, VerifyReport, build_action,
                     gravity_line_rank, h_derivation, torus_automorphism,
                     verify_action)
from .adjunction import (factors_through_truncation, hom_backward,
                         hom_forward, totalize, truncated_correspondence)

__version__ = "0.1.0"
