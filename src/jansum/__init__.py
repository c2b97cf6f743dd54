"""Exact character combinatorics for SL(d+1).

Partitions and dominance order, the weight lattice in fundamental
coordinates, the Weyl-group dot action (full group and standard Levi
subgroups), the Jantzen sum formula with per-term traces, Kostka numbers
and Schur-to-monomial expansion, and machine verification of two families
of alternating Schur-function identities over dominance ideals: the sum of
m_mu over the partitions below (n-1, n-1, 1), or below (n-1, 1), against
the alternating sum of the Schur functions of the shapes
(n-1, n-1-i, 1^(i+1)), or of the hooks (n-1-i, 1^(i+1)).  Of the
paper's named weights only the lambda_i of the Jantzen-sum telescope are
built (lambda_sequence); lifted to partitions by their suffix sums
(to_epsilon), they are the first family's shapes at n = p, so the paper's
f = 0 by-product is checked as both families at n = p
(multiplicity_one_report).  The paper's lambda_f for f > 0 concern
line-bundle cohomology, which this package does not compute.  A Weyl
character, a Jantzen total (SumReport.rows) or a prop-char tail, is
sorted rows (*coords, coeff), and a monomial one (schur_to_monomial) a
plain dict {Partition: coefficient}.  The names imported below are
the public API.  Of the slow references that selftest checks the fast
paths against, only dot_orbit_oracle is among them; the others, the
Jantzen sum's (oracle.reference_jantzen) included, live in jansum.oracle,
which only selftest, the tests and the benchmark's checks load.
"""

from .charring import kostka, schur_to_monomial
from .identities import (
    IdentityReport,
    MultiplicityOneReport,
    conjecture_sweep,
    multiplicity_one_report,
)
from .jantzen import (
    JantzenTerm,
    PropCharReport,
    SumReport,
    jantzen_sum,
    lambda_sequence,
    verify_prop_char,
)
from .lattice import (
    Partition,
    Weight,
    dominance_leq,
    partitions_below,
    rho,
)
from .weyl import (
    LeviDatum,
    SignedDominant,
    dot_normalize,
    dot_orbit_oracle,
    from_epsilon,
    to_epsilon,
)

__version__ = "0.1.0"
