"""Exact computations with finite-group cocycles, torus lifts, and their characters."""

from .errors import KleinformError, ValidationError, WindowError, CertificateError
from .qz import QZ
from .intmat import xgcd, solve_sparse, SolveResult
from .groups import (
    FiniteGroup, GroupHom, cyclic, klein4, symmetric3, dihedral, dicyclic,
    alternating4, direct_product, closure, cyclic_generator, generating_set,
    all_homs, parse_group_text, load_group_file, parse_group_spec)
from .cochains import (
    Cochain, CochainReport, differential, validate_cochain, alpha_cyclic,
    pullback_cochain, coboundary_solve, parse_cochain_text, load_cochain_file)
from .lifts import GammaLift, lift_gamma, conjugate_lift, E1, E2
from .moduli import (
    TorusRep, SL2Z, in_gamma1, enumerate_bundles, orbit_stabilizer, torus_orbits,
    sl2z_act, r_diff, dehn_character, klein_character,
    holonomy_cocycle_R, sections_dimension)
from .groupoid_lines import (
    FiniteGroupoidPresentation, GroupoidCocycle, GroupoidReport,
    validate_groupoid_cocycle, flat_components, parse_groupoid_text,
    load_groupoid_file)

__version__ = "0.1.0"
