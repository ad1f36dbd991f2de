"""Exact minimum-teleportation partitioning of quantum circuits.

Pipeline: a gate-list circuit is converted to a bipartite qubit/gate graph,
compressed into a qubit-pair weight matrix, and split into K parts by a
memoized dynamic program over qubit subsets so that the number of two-qubit
gates crossing parts (one teleportation each) is minimal. An execution trace
classifies each gate as local or global under the chosen assignment.
"""

from .bigraph import (
    BipartiteGraph,
    WeightMatrix,
    bigraph_to_dot,
    qc_to_bigraph,
    weight_matrix,
)
from .circuit import (
    Circuit,
    gen_qft,
    import_real,
    parse_circuit,
    render_circuit,
)
from .errors import (
    CircuitSyntaxError,
    InfeasiblePartitionError,
    QcpartError,
    SizeCapError,
    UnsupportedGateError,
)
from .executor import (
    GLOBAL,
    LOCAL,
    Metrics,
    Trace,
    compute_metrics,
    format_ratio,
    trace_execution,
    trace_to_json,
    trace_to_records,
    trace_to_text,
)
from .partitioner import (
    DpTable,
    PartitionAssignment,
    PartitionResult,
    QubitSubset,
    assignment_cost,
    dp_partition,
    dp_table,
    format_subset,
    oracle_partition,
    subset_of,
    subset_qubits,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "Circuit",
    "CircuitSyntaxError",
    "DpTable",
    "GLOBAL",
    "InfeasiblePartitionError",
    "LOCAL",
    "Metrics",
    "PartitionAssignment",
    "PartitionResult",
    "QcpartError",
    "QubitSubset",
    "SizeCapError",
    "Trace",
    "UnsupportedGateError",
    "WeightMatrix",
    "assignment_cost",
    "bigraph_to_dot",
    "compute_metrics",
    "dp_partition",
    "dp_table",
    "format_ratio",
    "format_subset",
    "gen_qft",
    "import_real",
    "oracle_partition",
    "parse_circuit",
    "qc_to_bigraph",
    "render_circuit",
    "subset_of",
    "subset_qubits",
    "trace_execution",
    "trace_to_json",
    "trace_to_records",
    "trace_to_text",
    "weight_matrix",
]
