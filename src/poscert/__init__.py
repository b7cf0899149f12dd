"""poscert: exact positivity calculus, spherical-code bounds, and lattices.

Modules:
    polycore   exact rational polynomials and Sturm sign certification
    gegenbauer the orthogonal family G_k^{(n)}, basis conversion, moments
    delsarte   LP bounds for spherical codes and exact bound certificates
    entrywise  psd checks, power-preserver witnesses, 2x2 predicates, embeddings
    schurdet   the determinant / Schur-polynomial expansion identity
    lattice    root lattices, E8, Leech, Golay code, short vectors
    simplex    revised simplex used by the LP engine
    cli        command-line front end
"""

from .polycore import Interval, Poly, Rational, certify_nonpositive
from .gegenbauer import (
    GegenbauerCoeffs,
    gegenbauer,
    normalized_moment,
    to_gegenbauer_basis,
    to_jacobi_basis,
)
from .delsarte import (
    BoundCertificate,
    CertificateRejection,
    LpInfeasible,
    known_certificate,
    lp_bound,
    verify_certificate,
)
from .entrywise import (
    DistanceMatrix,
    PsdReport,
    SymMatrix,
    euclidean_embed,
    power_preserver_witness,
    psd_check,
    sphere_embed,
    vasudeva_2x2_check,
)
from .schurdet import TruncatedSeries, det_series_direct, det_series_formula, schur_eval
from .lattice import (
    BinaryCode,
    Lattice,
    LatticeInvariants,
    golay_code,
    lattice_invariants,
    leech_lattice,
    short_vectors,
    standard_lattice,
    table_report,
)

__version__ = "0.1.0"
