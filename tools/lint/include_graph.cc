/**
 * @file
 * Include-graph rules: extract quoted includes, map files to modules,
 * check the declared layering for back-edges, and detect both
 * module-level and file-level include cycles (printing the offending
 * path).
 *
 * Declared layering (lower may never include higher):
 *
 *   0 util -> 1 obs -> 2 robust -> 3 parallel -> 4 tensor,linalg ->
 *   5 model,decomp -> 6 hw,quant -> 7 eval,dse,train,serve ->
 *   8 tools,tests,bench,examples
 *
 * Edges within one layer (model -> decomp, dse -> eval, ...) are
 * allowed as long as the module graph stays acyclic; a cycle whose
 * layers are monotonically non-increasing must be all-same-layer, so
 * the cycle check only needs to run on intra-layer edges.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "semantic.h"

namespace lrd::lint {

namespace {

const std::map<std::string, int> kLayerOf = {
    {"util", 0},   {"obs", 1},    {"robust", 2},   {"parallel", 3},
    {"tensor", 4}, {"linalg", 4}, {"model", 5},    {"decomp", 5},
    {"hw", 6},     {"quant", 6},  {"eval", 7},     {"dse", 7},
    {"train", 7},  {"serve", 7},  {"tools", 8},    {"tests", 8},
    {"bench", 8},  {"examples", 8},
};

std::string
dirName(const std::string &path)
{
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/** Resolve a quoted include to a repo-relative path. */
std::string
resolveInclude(const std::string &includer, const std::string &target)
{
    const size_t slash = target.find('/');
    if (slash != std::string::npos) {
        // Module-qualified include ("model/config.h") resolves
        // against src/; other rooted paths are taken as written.
        const std::string first = target.substr(0, slash);
        if (kLayerOf.count(first) && first != "tools" && first != "tests" &&
            first != "bench" && first != "examples")
            return "src/" + target;
        return target;
    }
    const std::string dir = dirName(includer);
    return dir.empty() ? target : dir + "/" + target;
}

struct ModuleEdge
{
    std::string from, to;
    std::string exampleFile;
    std::string exampleTarget;
    int exampleLine = 0;
};

/**
 * DFS cycle finder over a module digraph; returns the first cycle as
 * a module path (closed: front == back), or empty when acyclic.
 */
std::vector<std::string>
findModuleCycle(const std::map<std::string, std::set<std::string>> &adj)
{
    std::map<std::string, int> state; // 0 new, 1 on stack, 2 done
    std::vector<std::string> stack, cycle;

    const std::function<bool(const std::string &)> dfs =
        [&](const std::string &m) {
            state[m] = 1;
            stack.push_back(m);
            const auto it = adj.find(m);
            if (it != adj.end()) {
                for (const std::string &n : it->second) {
                    if (state[n] == 1) {
                        const auto pos =
                            std::find(stack.begin(), stack.end(), n);
                        cycle.assign(pos, stack.end());
                        cycle.push_back(n);
                        return true;
                    }
                    if (state[n] == 0 && dfs(n))
                        return true;
                }
            }
            stack.pop_back();
            state[m] = 2;
            return false;
        };

    for (const auto &[m, _] : adj)
        if (state[m] == 0 && dfs(m))
            return cycle;
    return {};
}

} // namespace

std::string
moduleOf(const std::string &path)
{
    const size_t slash = path.find('/');
    if (slash == std::string::npos)
        return "";
    const std::string first = path.substr(0, slash);
    if (first == "src") {
        const size_t second = path.find('/', slash + 1);
        if (second == std::string::npos)
            return "";
        return path.substr(slash + 1, second - slash - 1);
    }
    if (kLayerOf.count(first))
        return first;
    return "";
}

int
moduleLayer(const std::string &module)
{
    const auto it = kLayerOf.find(module);
    return it == kLayerOf.end() ? -1 : it->second;
}

std::vector<Diagnostic>
checkIncludeGraph(const std::vector<FileSummary> &files)
{
    std::vector<Diagnostic> out;

    // file -> resolved quoted-include targets (with lines).
    struct FileInclude
    {
        std::string target;
        int line;
    };
    std::map<std::string, std::vector<FileInclude>> fileIncludes;
    std::set<std::string> known;
    for (const FileSummary &f : files)
        known.insert(f.path);

    std::map<std::pair<std::string, std::string>, ModuleEdge> moduleEdges;

    for (const FileSummary &f : files) {
        const std::string fromMod = moduleOf(f.path);
        const int fromLayer = moduleLayer(fromMod);
        auto &incs = fileIncludes[f.path];

        for (const IncludeDirective &inc : f.includes) {
            if (!inc.quoted)
                continue; // system headers are outside the layering
            const std::string target = resolveInclude(f.path, inc.target);
            incs.push_back({target, inc.line});

            const std::string toMod = moduleOf(target);
            const int toLayer = moduleLayer(toMod);
            if (fromLayer < 0 || toLayer < 0 || fromMod == toMod)
                continue;

            if (toLayer > fromLayer) {
                std::ostringstream oss;
                oss << "layering back-edge: module '" << fromMod
                    << "' (layer " << fromLayer << ") must not include '"
                    << toMod << "' (layer " << toLayer << "); "
                    << f.path << " includes \"" << inc.target << "\"";
                out.push_back(Diagnostic{f.path, inc.line, kRuleLayering,
                                         oss.str(), ""});
            } else if (toLayer == fromLayer) {
                // Candidate intra-layer edge for the cycle check.
                const auto key = std::make_pair(fromMod, toMod);
                if (!moduleEdges.count(key))
                    moduleEdges[key] = ModuleEdge{fromMod, toMod, f.path,
                                                  inc.target, inc.line};
            }
        }
    }

    // Module-level cycles among intra-layer edges.
    std::map<std::string, std::set<std::string>> adj;
    for (const auto &[key, e] : moduleEdges)
        adj[e.from].insert(e.to);
    const std::vector<std::string> cycle = findModuleCycle(adj);
    if (!cycle.empty()) {
        std::ostringstream oss;
        oss << "module dependency cycle: ";
        for (size_t i = 0; i < cycle.size(); ++i)
            oss << (i ? " -> " : "") << cycle[i];
        const ModuleEdge &e = moduleEdges.at({cycle[0], cycle[1]});
        oss << " (e.g. " << e.exampleFile << " includes \"" << e.exampleTarget
            << "\")";
        out.push_back(Diagnostic{e.exampleFile, e.exampleLine, kRuleCycle,
                                 oss.str(), ""});
    }

    // File-level include cycles (only over files we were given).
    std::map<std::string, int> state;
    std::vector<std::string> stack;
    std::vector<std::string> fileCycle;
    int cycleLine = 0;

    const std::function<bool(const std::string &)> dfs =
        [&](const std::string &f) {
            state[f] = 1;
            stack.push_back(f);
            for (const FileInclude &inc : fileIncludes[f]) {
                if (!known.count(inc.target))
                    continue;
                if (state[inc.target] == 1) {
                    const auto pos = std::find(stack.begin(), stack.end(),
                                               inc.target);
                    fileCycle.assign(pos, stack.end());
                    fileCycle.push_back(inc.target);
                    cycleLine = inc.line;
                    return true;
                }
                if (state[inc.target] == 0 && dfs(inc.target))
                    return true;
            }
            stack.pop_back();
            state[f] = 2;
            return false;
        };

    for (const FileSummary &f : files) {
        if (state[f.path] == 0 && dfs(f.path) && !fileCycle.empty()) {
            std::ostringstream oss;
            oss << "include cycle: ";
            for (size_t i = 0; i < fileCycle.size(); ++i)
                oss << (i ? " -> " : "") << fileCycle[i];
            out.push_back(Diagnostic{fileCycle.back(), cycleLine, kRuleCycle,
                                     oss.str(), ""});
            break; // one cycle report is enough to act on
        }
    }

    return out;
}

} // namespace lrd::lint
