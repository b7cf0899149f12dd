"""poscert: exact positivity calculus, spherical-code bounds, and lattices.

Modules:
    polycore   exact rational polynomials and Sturm sign certification
    gegenbauer the orthogonal family G_k^{(n)}, basis conversion, moments
    delsarte   LP bounds for spherical codes and exact bound certificates
    entrywise  psd checks, Schur products, entrywise maps, embeddings
    schurdet   the determinant / Schur-polynomial expansion identity
    lattice    root lattices, E8, Leech, Golay code, short vectors
    simplex    dense tableau simplex used by the LP engine
    cli        command-line front end
"""

from .polycore import Interval, Poly, Rational, certify_nonpositive
from .gegenbauer import (
    GegenbauerCoeffs,
    dim_spherical_harmonics,
    gegenbauer,
    gegenbauer_gram_check,
    gegenbauer_via_generating_series,
    inner_product_normalized,
    normalized_moment,
    to_gegenbauer_basis,
    to_jacobi_basis,
)
from .delsarte import (
    BoundCertificate,
    CertificateRejection,
    LpInfeasible,
    SphericalCode,
    classical_upper_bounds,
    code_upper_bound_check,
    known_certificate,
    lp_bound,
    verify_certificate,
)
from .entrywise import (
    AtomicMeasure,
    DistanceMatrix,
    PsdReport,
    SymMatrix,
    apply_entrywise,
    euclidean_embed,
    moment_matrix,
    power_preserver_witness,
    psd_check,
    schur_product,
    sphere_embed,
    vasudeva_2x2_check,
)
from .schurdet import TruncatedSeries, det_series_direct, det_series_formula, schur_eval
from .lattice import (
    BinaryCode,
    Lattice,
    LatticeInvariants,
    golay_code,
    hamming_distance,
    lattice_invariants,
    leech_lattice,
    min_weight,
    short_vectors,
    standard_lattice,
    table_report,
)

__version__ = "0.1.0"
