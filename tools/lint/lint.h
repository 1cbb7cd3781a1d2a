/**
 * @file
 * lrd-lint: project-invariant static analysis for the lrd tree.
 *
 * A deliberately small, libclang-free linter. It tokenizes C++
 * sources (comments, string literals and preprocessor lines are
 * handled; no semantic analysis) and enforces the invariants the
 * paper reproduction depends on:
 *
 *  - determinism: no ad-hoc randomness or wall-clock seeding outside
 *    src/util/rng, no unordered-container iteration order leaking
 *    into the numeric core;
 *  - concurrency discipline: raw threads only inside src/parallel/
 *    and src/util/worker_lane.*, no unsynchronized mutable globals;
 *  - layering: the module DAG util -> obs -> robust -> parallel ->
 *    tensor/linalg -> model/decomp -> hw/quant -> eval/dse/train ->
 *    tools/tests/bench must stay acyclic with no back-edges;
 *  - error discipline: `throw` is confined to src/util (fatal/panic
 *    and Rng argument checks); everything else reports failures as
 *    lrd::Status / lrd::Result, which are [[nodiscard]], so the
 *    compiler (every target builds with -Werror) rejects a dropped
 *    one;
 *  - header hygiene: include guards, no `using namespace` at
 *    namespace scope in headers.
 *
 * Violations are suppressible in place with a trailing or preceding
 * comment `// lrd-lint: allow(<rule>[, <rule>...])`.
 *
 * The core operates on (path, content) pairs so tests can feed
 * fixture snippets without touching the filesystem; the CLI wrapper
 * in main.cc walks the real tree.
 */

#ifndef LRD_TOOLS_LINT_LINT_H
#define LRD_TOOLS_LINT_LINT_H

#include <string>
#include <vector>

namespace lrd::lint {

/** One source file presented to the linter. */
struct SourceFile
{
    /** Repo-relative path with forward slashes, e.g. "src/util/rng.h". */
    std::string path;
    /** Full file contents. */
    std::string content;
};

/** One rule violation. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    /** Stable rule name, usable in allow(...) suppressions. */
    std::string rule;
    std::string message;
    /**
     * Qualified name of the function/symbol the finding is about
     * (empty for file-level findings). Baseline suppression keys on
     * (rule, file, symbol) so entries survive line drift.
     */
    std::string symbol;
};

/** Rule names (single definition so help text / tests stay in sync). */
inline constexpr const char *kRuleBannedRandom = "banned-random";
inline constexpr const char *kRuleWallClock = "wall-clock";
inline constexpr const char *kRuleUnordered = "unordered-container";
inline constexpr const char *kRuleThread = "thread-outside-parallel";
inline constexpr const char *kRuleNonconstGlobal = "nonconst-global";
inline constexpr const char *kRuleHeaderGuard = "header-guard";
inline constexpr const char *kRuleUsingNamespace = "using-namespace-header";
inline constexpr const char *kRuleLayering = "include-layering";
inline constexpr const char *kRuleCycle = "include-cycle";
inline constexpr const char *kRuleNakedThrow = "naked-throw";
inline constexpr const char *kRuleBlockingSleep = "blocking-sleep";
inline constexpr const char *kRuleIntrinsics = "intrinsics-outside-simd";
inline constexpr const char *kRuleHotPathAlloc = "hot-path-alloc";
inline constexpr const char *kRuleLockDiscipline = "lock-discipline";
inline constexpr const char *kRuleFpOrder = "fp-order";
inline constexpr const char *kRuleDeadSymbol = "dead-symbol";
inline constexpr const char *kRuleStaleBaseline = "stale-baseline";

/**
 * Layer of a module directory in the declared layering, or -1 when
 * the path is outside the known tree. Higher layers may include
 * lower ones; an include in the other direction is a back-edge.
 */
int moduleLayer(const std::string &module);

/** Module name for a repo-relative path ("src/util/rng.h" -> "util"). */
std::string moduleOf(const std::string &path);

/**
 * Run every per-file token rule on one file. Suppressions are
 * already applied; the result contains only live violations.
 */
std::vector<Diagnostic> lintFile(const SourceFile &file);

/**
 * Per-file rules, include-graph rules and the cross-TU semantic
 * rules over a whole tree, sorted by (file, line, rule).
 */
std::vector<Diagnostic> lintFiles(const std::vector<SourceFile> &files);

/** "file:line: [rule] message" -- the human-readable report line. */
std::string formatDiagnostic(const Diagnostic &d);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_LINT_H
