#include "semantic.h"

#include <algorithm>
#include <set>
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

/** Mutex name annotated on `line` (or the line above), or "". */
std::string
annotatedMutex(const Annotations &ann, int line)
{
    for (int l : {line, line - 1}) {
        const auto it = ann.mutexNames.find(l);
        if (it != ann.mutexNames.end())
            return it->second;
    }
    return "";
}

void
checkHotPathAlloc(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    for (const auto &[ref, mark] : graph.hotSet()) {
        (void)mark;
        const FileSummary &sum = graph.file(ref);
        if (!productionPath(sum.path))
            continue;
        const FunctionInfo &fi = graph.fn(ref);
        for (const AllocSite &alloc : fi.allocs) {
            if (isSuppressed(sum.annotations, alloc.line,
                             kRuleHotPathAlloc))
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

void
checkLockDiscipline(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    const std::vector<FileSummary> &sums = graph.files();

    // Every mutex name declared anywhere (for the unknown-name check).
    std::set<std::string> declaredNames;
    for (const FileSummary &sum : sums)
        for (const MutexDecl &m : sum.mutexes)
            declaredNames.insert(m.name);

    for (size_t f = 0; f < sums.size(); ++f) {
        const FileSummary &sum = sums[f];
        for (const auto &[line, name] : sum.annotations.mutexNames) {
            if (!declaredNames.count(name)) {
                out.push_back(Diagnostic{
                    sum.path, line, kRuleLockDiscipline,
                    "mutex annotation names '" + name
                        + "', which is not declared anywhere in the "
                          "tree",
                    name});
                continue;
            }
            const std::string key =
                graph.mutexKey(static_cast<int>(f), name);
            if (!key.empty() && !graph.acquiredKeys().count(key))
                out.push_back(Diagnostic{
                    sum.path, line, kRuleLockDiscipline,
                    "mutex '" + name
                        + "' is annotated as a guard but never "
                          "acquired (no lock_guard/unique_lock/"
                          "scoped_lock/.lock() in the tree)",
                    name});
        }

        // Writers of an annotated global must hold its mutex. The
        // check is same-file: every annotated global in this tree has
        // internal linkage.
        for (const GlobalDecl &g : sum.globals) {
            const std::string mutexName =
                annotatedMutex(sum.annotations, g.line);
            if (mutexName.empty())
                continue;
            const std::string key =
                graph.mutexKey(static_cast<int>(f), mutexName);
            if (key.empty())
                continue; // unknown/ambiguous: reported above
            for (size_t i = 0; i < sum.functions.size(); ++i) {
                const FunctionInfo &fi = sum.functions[i];
                if (fi.isDeclOnly)
                    continue;
                bool writes = false;
                int writeLine = 0;
                for (const WriteSite &w : fi.writes)
                    if (w.var == g.name) {
                        writes = true;
                        writeLine = w.line;
                        break;
                    }
                if (!writes)
                    continue;
                bool holds = false;
                for (const LockSite &l : fi.locks)
                    if (graph.mutexKey(static_cast<int>(f),
                                       l.mutexName)
                        == key)
                        holds = true;
                if (holds
                    || isSuppressed(sum.annotations, writeLine,
                                    kRuleLockDiscipline))
                    continue;
                out.push_back(Diagnostic{
                    sum.path, writeLine, kRuleLockDiscipline,
                    "write to '" + g.name + "' (annotated mutex("
                        + mutexName + ")) in " + fi.qualName
                        + " without acquiring it",
                    fi.qualName});
            }
        }
    }

    // Repo-wide acquisition order must be acyclic.
    const std::vector<LockEdge> cycle = graph.findLockCycle();
    if (!cycle.empty()) {
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
}

void
checkUncheckedResult(const RepoGraph &graph, std::vector<Diagnostic> &out)
{
    const std::vector<FileSummary> &sums = graph.files();
    for (size_t f = 0; f < sums.size(); ++f) {
        const FileSummary &sum = sums[f];
        for (const FunctionInfo &fi : sum.functions) {
            for (const CallSite &d : fi.discards) {
                const std::vector<FunctionRef> cands =
                    graph.resolveAny(static_cast<int>(f), d.name);
                if (cands.empty())
                    continue;
                const bool allStatus = std::all_of(
                    cands.begin(), cands.end(),
                    [&](const FunctionRef &r) {
                        return graph.fn(r).returnsStatus;
                    });
                if (!allStatus)
                    continue;
                if (isSuppressed(sum.annotations, d.line,
                                 kRuleUncheckedResult))
                    continue;
                const std::string callee = bareName(d.name);
                out.push_back(Diagnostic{
                    sum.path, d.line, kRuleUncheckedResult,
                    "result of '" + callee
                        + "' (returns Status/Result) is discarded; "
                          "check it or cast to void",
                    fi.qualName + " -> " + callee});
            }
        }
    }
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
            if (fi.isLambda || fi.isDeclOnly || fi.special
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
                      "declaration (tests and benches count as "
                      "callers)",
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
    checkLockDiscipline(graph, out);
    checkUncheckedResult(graph, out);
    checkFpOrder(graph, out);
    checkDeadSymbols(graph, out);
    return out;
}

std::vector<Diagnostic>
analyzeSummaries(const std::vector<FileSummary> &sums)
{
    std::vector<Diagnostic> out;
    for (const FileSummary &sum : sums)
        out.insert(out.end(), sum.fileDiags.begin(),
                   sum.fileDiags.end());

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

std::vector<Diagnostic>
lintFiles(const std::vector<SourceFile> &files)
{
    std::vector<FileSummary> sums;
    sums.reserve(files.size());
    for (const SourceFile &f : files)
        sums.push_back(parseFile(f));
    return analyzeSummaries(sums);
}

} // namespace lrd::lint
