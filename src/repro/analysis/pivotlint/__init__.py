"""pivotlint: static privacy-flow analysis for the Pivot reproduction.

An AST-based analyzer with a small dataflow/taint engine — backed by a
project-wide call graph (``callgraph``) and per-function effect summaries
(``summaries``) — that checks every path, executed or not, across
function and module boundaries.  It keeps only the invariants no runtime
check enforces: the runtime already refuses an unregistered payload type,
a send outside a flow, an unknown tag or op and a receive that waits on a
send not yet made, on every path a test executes.

Rules:

====== ========================= ==========================================
PL001  raw-read-outside-scope    raw feature/label data read outside the
                                 owning party's scope
PL002  secret-escape             key secrets (d_i, dealer key, primes)
                                 reaching wire/log/repr/public-return
                                 sinks, including through helper calls
PL007  unbounded-wait            while-True receive loops with no timeout,
                                 deadline, or EOF-class exception handling
PL008  blocking-in-event-loop    synchronous sleep/socket/bigint-pow calls
                                 inside ``async def`` bodies
PL011  round-parity              a flow scope's ``bus.flow(K)`` constant
                                 that disagrees with the round count
                                 derived from the choreography
PL012  cross-thread-shared-state transport attributes mutated from both
                                 the daemon loop thread and the caller
                                 thread with an unlocked access on some
                                 path; also ``await`` under a held lock
====== ========================= ==========================================

Run: ``python -m repro.analysis.pivotlint src/ --strict`` (add
``--jobs N`` to fan per-file checks across worker processes, ``0`` for
one per core; the merged report is byte-identical to a serial run).  See
``src/repro/analysis/pivotlint/README.md`` for the catalogue, the
interprocedural semantics, the suppression policy, and how to add a rule.
"""

from repro.analysis.pivotlint.engine import Analyzer, FileContext, Report
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import REGISTRY, Rule, register

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "REGISTRY",
    "Report",
    "Rule",
    "register",
]
