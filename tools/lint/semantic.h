/**
 * @file
 * Cross-TU semantic rules over parsed FileSummary records.
 *
 * Four rules run on the whole-repo call graph:
 *
 *  - hot-path-alloc: no allocation primitive in any function
 *    transitively reachable from a thread-pool chunk body or a
 *    function of the SIMD kernel module. Findings print the full
 *    reachability proof; `// lrd-lint: allow(hot-path-alloc)` on the
 *    allocation line escapes (e.g. thread_local scratch growth).
 *  - lock-discipline: the repo-wide lock acquisition order must be
 *    acyclic.
 *  - fp-order: += / -= / *= / /= on a captured floating-point
 *    accumulator inside a parallel chunk body reorders the reduction
 *    across thread counts; use the fixed-order helpers in
 *    src/parallel/ (which are exempt).
 *  - dead-symbol: an external-linkage function defined under src/
 *    whose name is never referenced outside its own declarations and
 *    tests/ has no caller that ships (benches, examples, pipebench
 *    and tools count; a test hook says so with an allow comment).
 *
 * hot-path-alloc and fp-order report only on src/ and tools/ files:
 * tests and benches intentionally allocate and accumulate inside
 * chunk bodies when exercising the pool itself.
 */

#ifndef LRD_TOOLS_LINT_SEMANTIC_H
#define LRD_TOOLS_LINT_SEMANTIC_H

#include <vector>

#include "lint.h"
#include "parser.h"

namespace lrd::lint {

/** The four cross-TU rules over a parsed tree. */
std::vector<Diagnostic>
runSemanticRules(const std::vector<FileSummary> &sums);

/**
 * The include-graph rules (layering back-edges, module cycles,
 * file-level include cycles) over a parsed tree.
 */
std::vector<Diagnostic>
checkIncludeGraph(const std::vector<FileSummary> &sums);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_SEMANTIC_H
