"""Exact invariants of rational-homology-sphere plumbing trees.

Builds the intersection lattice of a negative-definite plumbing tree,
expands the associated multivariable series by exact enumeration, recovers
the Seiberg-Witten invariants of every spin-c class from its counting
function, and machine-verifies the surgery identities relating a tree to
the pieces left after deleting any vertex subset.  Everything is integer
or rational arithmetic; equality checks are exact.
"""

from .errors import (
    BoundViolation,
    ComponentNotRational,
    DepthNotStable,
    DuplicateVertex,
    FitInconsistent,
    IdentityViolation,
    InfeasibleQuery,
    InternalDisagreement,
    IterationCapExceeded,
    MethodPreconditionFailed,
    NotATree,
    NotGorenstein,
    NotInDualLattice,
    PlumbingError,
    SubsetCapExceeded,
)
from .graph import (
    ClassTable,
    GraphForest,
    LatticeVector,
    PlumbingGraph,
    class_of,
    connected_closure,
    dual_restrict,
    emit_graph_text,
    is_rational,
    load_graph,
    minimal_s_rep,
    parse_graph,
    validate,
)
from .series import (
    UnivariateTable,
    coefficient,
    counting,
    support_bound_report,
)
from .sw import (
    QuasiPoly,
    SurgeryReport,
    SwRecord,
    component_term,
    counting_surgery_sweep,
    pc_reduced,
    reduction_rational,
    sw_invariant,
    sw_table,
    verify_counting_surgery,
    verify_pc_surgery,
)
from .cubes import (
    coefficient_via_cubes,
    gorenstein_pc,
    s_function,
    swbar,
    swbar_via_cubes,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
