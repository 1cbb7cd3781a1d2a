#include "semantic.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "callgraph.h"

namespace lrd::lint {

namespace {

std::string
bareName(const std::string &callee)
{
    return !callee.empty() && callee[0] == '.' ? callee.substr(1)
                                               : callee;
}

/** Rules that police runtime behaviour skip tests and benches. */
bool
productionPath(const std::string &path)
{
    return path.compare(0, 4, "src/") == 0
           || path.compare(0, 6, "tools/") == 0;
}

void
checkHotPathAlloc(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    for (const auto &[ref, parent] : graph.hotSet()) {
        (void)parent;
        const FileSummary &sum = graph.file(ref);
        if (!productionPath(sum.path))
            continue;
        const FunctionInfo &fi = graph.fn(ref);
        for (const AllocSite &alloc : fi.allocs) {
            if (isSuppressed(sum.annotations, alloc.line,
                             kRuleHotPathAlloc))
                continue;
            // A growth-named member of an in-tree class is a call.
            if (!alloc.receiverType.empty()
                && !graph
                        .resolve(ref, alloc.receiverType
                                          + "::" + bareName(alloc.what))
                        .empty())
                continue;
            std::ostringstream oss;
            oss << "allocation (" << alloc.what
                << ") on the hot path; reachable via: "
                << graph.hotPath(ref);
            out.push_back(Diagnostic{sum.path, alloc.line,
                                     kRuleHotPathAlloc, oss.str(),
                                     fi.qualName});
        }
    }
}

/** The repo-wide lock acquisition order must be acyclic. */
void
checkLockOrder(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    const std::vector<LockEdge> cycle = graph.findLockCycle();
    if (cycle.empty())
        return;
    std::ostringstream oss;
    oss << "lock acquisition order cycle: ";
    for (size_t i = 0; i < cycle.size(); ++i) {
        if (i)
            oss << "; ";
        oss << cycle[i].from << " -> " << cycle[i].to << " in "
            << cycle[i].witness;
    }
    out.push_back(Diagnostic{cycle.front().file, cycle.front().line,
                             kRuleLockDiscipline, oss.str(),
                             cycle.front().from});
}

void
checkFpOrder(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    const std::vector<FileSummary> &sums = graph.files();
    for (size_t f = 0; f < sums.size(); ++f) {
        const FileSummary &sum = sums[f];
        if (!productionPath(sum.path))
            continue;
        // The fixed-order reduction helpers live here by design.
        if (sum.path.compare(0, 13, "src/parallel/") == 0)
            continue;
        for (const FunctionInfo &fi : sum.functions) {
            if (!fi.isLambda)
                continue;
            if (bareName(fi.passedTo) != "parallelFor")
                continue;
            for (const FpWrite &w : fi.fpWrites) {
                // Chunk-local accumulators are serial within their
                // chunk; only captured ones reorder across threads.
                if (std::find(fi.floatLocals.begin(),
                              fi.floatLocals.end(), w.var)
                        != fi.floatLocals.end()
                    || std::find(fi.params.begin(), fi.params.end(),
                                 w.var)
                           != fi.params.end())
                    continue;
                bool capturedFloat = false;
                for (int e = fi.enclosing; e >= 0;) {
                    const FunctionInfo &enc =
                        sum.functions[static_cast<size_t>(e)];
                    if (std::find(enc.floatLocals.begin(),
                                  enc.floatLocals.end(), w.var)
                        != enc.floatLocals.end()) {
                        capturedFloat = true;
                        break;
                    }
                    e = enc.enclosing;
                }
                if (!capturedFloat)
                    continue;
                if (isSuppressed(sum.annotations, w.line, kRuleFpOrder))
                    continue;
                out.push_back(Diagnostic{
                    sum.path, w.line, kRuleFpOrder,
                    "floating-point accumulation into captured '"
                        + w.var
                        + "' inside a parallel chunk body reorders "
                          "the reduction; use a fixed-order reducer "
                          "from src/parallel/",
                    fi.qualName});
            }
        }
    }
}

void
checkDeadSymbols(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    const std::vector<FileSummary> &sums = graph.files();
    for (const FileSummary &sum : sums) {
        if (sum.path.compare(0, 4, "src/") != 0)
            continue;
        for (const FunctionInfo &fi : sum.functions) {
            if (fi.isLambda || fi.special
                || fi.internal)
                continue;
            if (graph.liveNames().count(fi.name))
                continue;
            if (isSuppressed(sum.annotations, fi.line, kRuleDeadSymbol))
                continue;
            out.push_back(Diagnostic{
                sum.path, fi.line, kRuleDeadSymbol,
                "'" + fi.qualName
                    + "' has no in-tree reference outside its own "
                      "declaration and tests/ (benches, examples and "
                      "tools count as callers)",
                fi.qualName});
        }
    }
}

} // namespace

std::vector<Diagnostic>
runSemanticRules(const std::vector<FileSummary> &sums)
{
    const RepoGraph graph(sums);
    std::vector<Diagnostic> out;
    checkHotPathAlloc(graph, out);
    checkLockOrder(graph, out);
    checkFpOrder(graph, out);
    checkDeadSymbols(graph, out);
    return out;
}

std::vector<Diagnostic>
lintFiles(const std::vector<SourceFile> &files)
{
    std::vector<FileSummary> sums;
    sums.reserve(files.size());
    std::vector<Diagnostic> out;
    for (const SourceFile &f : files) {
        sums.push_back(parseFile(f));
        out.insert(out.end(), sums.back().fileDiags.begin(),
                   sums.back().fileDiags.end());
    }

    std::vector<Diagnostic> graph = checkIncludeGraph(sums);
    out.insert(out.end(), graph.begin(), graph.end());

    std::vector<Diagnostic> semantic = runSemanticRules(sums);
    out.insert(out.end(), semantic.begin(), semantic.end());

    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message)
                         < std::tie(b.file, b.line, b.rule, b.message);
              });
    return out;
}

} // namespace lrd::lint
