/**
 * @file
 * Whole-repo call graph over FileSummary records.
 *
 * RepoGraph links every parsed translation unit into one index:
 * name-based call resolution, the hot-path reachability set (seeded
 * from the functions of the SIMD kernel module and from thread-pool
 * chunk bodies, then propagated through calls and through callback
 * conduits), mutex identity and lock-ordering edges, and the
 * repo-wide identifier liveness set.
 *
 * Resolution is name matching, not overload resolution: a call
 * resolves to the in-tree definitions that the written name could
 * denote (same-file restriction for internal-linkage functions,
 * suffix matching for qualified names). A member call on a local
 * declared as an in-tree class T (`T x(...); x.f()`) names T::f. An
 * unqualified non-member call names a lambda bound to a local variable
 * of that name in the caller or a function enclosing it; otherwise it
 * prefers candidates in the caller's own scope, then in the caller's
 * own file, before it falls back to every name match.
 */

#ifndef LRD_TOOLS_LINT_CALLGRAPH_H
#define LRD_TOOLS_LINT_CALLGRAPH_H

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "parser.h"

namespace lrd::lint {

/** Index of one function: (file index, function index). */
struct FunctionRef
{
    int file = -1;
    int fn = -1;

    bool valid() const { return file >= 0 && fn >= 0; }
    bool
    operator<(const FunctionRef &o) const
    {
        return file != o.file ? file < o.file : fn < o.fn;
    }
};

/** One directed lock-order edge with its witness. */
struct LockEdge
{
    std::string from;
    std::string to;
    /** "qualName (file:line)" of the acquisition establishing it. */
    std::string witness;
    /** Location of the first acquisition (diagnostic anchor). */
    std::string file;
    int line = 0;
};

class RepoGraph
{
  public:
    explicit RepoGraph(const std::vector<FileSummary> &files);

    const std::vector<FileSummary> &files() const { return files_; }
    const FileSummary &
    file(const FunctionRef &r) const
    {
        return files_[static_cast<size_t>(r.file)];
    }
    const FunctionInfo &
    fn(const FunctionRef &r) const
    {
        return file(r).functions[static_cast<size_t>(r.fn)];
    }

    /**
     * Definitions a call written as `callee` ("f", "A::f", ".f")
     * inside `caller` may reach. Empty for out-of-tree names.
     */
    std::vector<FunctionRef> resolve(const FunctionRef &caller,
                                     const std::string &callee) const;

    /** As above for one recorded call: a member call on a local of an
     *  in-tree class T names T's method. */
    std::vector<FunctionRef> resolve(const FunctionRef &caller,
                                     const CallSite &call) const;

    /**
     * Hot-path set: each hot function -> the hot function that
     * reached it (invalid for roots).
     */
    const std::map<FunctionRef, FunctionRef> &hotSet() const
    {
        return hot_;
    }

    /**
     * The reachability proof for a hot function, root first:
     * "qualName (file:line)" per hop joined with " -> ".
     */
    std::string hotPath(const FunctionRef &r) const;

    /**
     * One lock-order cycle if any exists: the edge sequence forming
     * it. Empty when the acquisition order is acyclic.
     */
    std::vector<LockEdge> findLockCycle() const;

    /** Identifiers referenced outside their declaration and tests/. */
    const std::set<std::string> &liveNames() const { return live_; }

  private:
    void buildIndex();
    void seedHotRoots();
    void propagateHot();
    void buildLocks();

    /** "file:line" for a function (diagnostic convenience). */
    std::string where(const FunctionRef &r) const;

    /**
     * Canonical identity of the mutex named `siteName` as seen from
     * `fileIdx` ("ThreadPool::mu_", "src/obs/trace.cc::State::mu");
     * empty when the name matches no unique in-tree declaration.
     */
    std::string mutexKey(int fileIdx, const std::string &siteName) const;

    /** Mutexes a call into `r` may acquire (transitive closure). */
    const std::set<std::string> &
    transitiveLocks(const FunctionRef &r) const;

    const std::vector<FileSummary> &files_;
    /** name -> definitions (bodies only, no lambdas). */
    std::map<std::string, std::vector<FunctionRef>> defsByName_;
    std::map<FunctionRef, FunctionRef> hot_;
    /** Names of functions whose callback parameters run hot. */
    std::set<std::string> conduits_;
    std::map<FunctionRef, std::set<std::string>> transLocks_;
    std::vector<LockEdge> edges_;
    std::set<std::string> live_;
};

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_CALLGRAPH_H
