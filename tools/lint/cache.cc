#include "cache.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sha256.h"

namespace lrd::lint {

namespace {

const char *kMagic = "lrdlint-summary v2";

/** Escape tab/newline/backslash so fields can be tab-separated. */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\t')
            out += "\\t";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
unesc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\\' && i + 1 < s.size()) {
            const char n = s[++i];
            if (n == 't')
                out += '\t';
            else if (n == 'n')
                out += '\n';
            else
                out += n;
        } else {
            out += s[i];
        }
    }
    return out;
}

/** Split one record line into its tab-separated raw fields. */
std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
        if (i == line.size() || line[i] == '\t') {
            out.push_back(line.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

int
toInt(const std::string &s)
{
    return static_cast<int>(std::strtol(s.c_str(), nullptr, 10));
}

} // namespace

std::string
serializeSummary(const FileSummary &sum)
{
    std::ostringstream oss;
    oss << kMagic << "\n";
    oss << "sha\t" << esc(sum.sha) << "\n";
    oss << "path\t" << esc(sum.path) << "\n";
    for (const IncludeDirective &inc : sum.includes)
        oss << "inc\t" << inc.line << "\t" << (inc.quoted ? 1 : 0)
            << "\t" << esc(inc.target) << "\n";
    for (const MutexDecl &m : sum.mutexes)
        oss << "mtx\t" << m.line << "\t" << esc(m.klass) << "\t"
            << esc(m.name) << "\n";
    for (const GlobalDecl &g : sum.globals)
        oss << "glb\t" << g.line << "\t" << esc(g.name) << "\n";
    for (const auto &[line, rules] : sum.annotations.allows)
        for (const std::string &rule : rules)
            oss << "allow\t" << line << "\t" << esc(rule) << "\n";
    for (const auto &[line, name] : sum.annotations.mutexNames)
        oss << "mtxann\t" << line << "\t" << esc(name) << "\n";
    for (const std::string &ident : sum.usedIdentifiers)
        oss << "use\t" << esc(ident) << "\n";
    for (const Diagnostic &d : sum.fileDiags)
        oss << "diag\t" << d.line << "\t" << esc(d.rule) << "\t"
            << esc(d.file) << "\t" << esc(d.symbol) << "\t"
            << esc(d.message) << "\n";
    for (const FunctionInfo &fn : sum.functions) {
        oss << "fn\t" << fn.line << "\t" << (fn.isLambda ? 1 : 0)
            << (fn.isDeclOnly ? 1 : 0) << (fn.returnsStatus ? 1 : 0)
            << (fn.internal ? 1 : 0) << (fn.special ? 1 : 0) << "\t"
            << fn.enclosing << "\t" << esc(fn.name) << "\t"
            << esc(fn.qualName) << "\t" << esc(fn.passedTo) << "\n";
        for (const std::string &p : fn.params)
            oss << "p\t" << esc(p) << "\n";
        for (const std::string &p : fn.floatLocals)
            oss << "fl\t" << esc(p) << "\n";
        for (const CallSite &c : fn.calls)
            oss << "c\t" << c.line << "\t" << esc(c.name) << "\n";
        for (const AllocSite &a : fn.allocs)
            oss << "a\t" << a.line << "\t" << esc(a.what) << "\n";
        for (const LockSite &l : fn.locks)
            oss << "lk\t" << l.line << "\t" << esc(l.mutexName) << "\n";
        for (const FpWrite &w : fn.fpWrites)
            oss << "fw\t" << w.line << "\t" << esc(w.var) << "\n";
        for (const WriteSite &w : fn.writes)
            oss << "w\t" << w.line << "\t" << esc(w.var) << "\n";
        for (const CallSite &d : fn.discards)
            oss << "d\t" << d.line << "\t" << esc(d.name) << "\n";
    }
    return oss.str();
}

bool
deserializeSummary(const std::string &data, FileSummary &out)
{
    std::istringstream iss(data);
    std::string line;
    if (!std::getline(iss, line) || line != kMagic)
        return false;

    FileSummary sum;
    FunctionInfo *fn = nullptr;
    while (std::getline(iss, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> f = fields(line);
        const std::string &tag = f[0];
        if (tag == "sha" && f.size() == 2) {
            sum.sha = unesc(f[1]);
        } else if (tag == "path" && f.size() == 2) {
            sum.path = unesc(f[1]);
        } else if (tag == "inc" && f.size() == 4) {
            sum.includes.push_back(IncludeDirective{
                unesc(f[3]), f[2] == "1", toInt(f[1])});
        } else if (tag == "mtx" && f.size() == 4) {
            sum.mutexes.push_back(
                MutexDecl{unesc(f[3]), unesc(f[2]), toInt(f[1])});
        } else if (tag == "glb" && f.size() == 3) {
            sum.globals.push_back(GlobalDecl{unesc(f[2]), toInt(f[1])});
        } else if (tag == "allow" && f.size() == 3) {
            sum.annotations.allows[toInt(f[1])].insert(unesc(f[2]));
        } else if (tag == "mtxann" && f.size() == 3) {
            sum.annotations.mutexNames[toInt(f[1])] = unesc(f[2]);
        } else if (tag == "use" && f.size() == 2) {
            sum.usedIdentifiers.push_back(unesc(f[1]));
        } else if (tag == "diag" && f.size() == 6) {
            sum.fileDiags.push_back(Diagnostic{unesc(f[3]), toInt(f[1]),
                                               unesc(f[2]), unesc(f[5]),
                                               unesc(f[4])});
        } else if (tag == "fn" && f.size() == 7) {
            FunctionInfo fi;
            fi.line = toInt(f[1]);
            const std::string &flags = f[2];
            if (flags.size() != 5)
                return false;
            fi.isLambda = flags[0] == '1';
            fi.isDeclOnly = flags[1] == '1';
            fi.returnsStatus = flags[2] == '1';
            fi.internal = flags[3] == '1';
            fi.special = flags[4] == '1';
            fi.enclosing = toInt(f[3]);
            fi.name = unesc(f[4]);
            fi.qualName = unesc(f[5]);
            fi.passedTo = unesc(f[6]);
            sum.functions.push_back(std::move(fi));
            fn = &sum.functions.back();
        } else if (tag == "p" && fn && f.size() == 2) {
            fn->params.push_back(unesc(f[1]));
        } else if (tag == "fl" && fn && f.size() == 2) {
            fn->floatLocals.push_back(unesc(f[1]));
        } else if (tag == "c" && fn && f.size() == 3) {
            fn->calls.push_back(CallSite{unesc(f[2]), toInt(f[1])});
        } else if (tag == "a" && fn && f.size() == 3) {
            fn->allocs.push_back(AllocSite{unesc(f[2]), toInt(f[1])});
        } else if (tag == "lk" && fn && f.size() == 3) {
            fn->locks.push_back(LockSite{unesc(f[2]), toInt(f[1])});
        } else if (tag == "fw" && fn && f.size() == 3) {
            fn->fpWrites.push_back(FpWrite{unesc(f[2]), toInt(f[1])});
        } else if (tag == "w" && fn && f.size() == 3) {
            fn->writes.push_back(WriteSite{unesc(f[2]), toInt(f[1])});
        } else if (tag == "d" && fn && f.size() == 3) {
            fn->discards.push_back(CallSite{unesc(f[2]), toInt(f[1])});
        } else {
            return false; // unknown record: treat as stale format
        }
    }
    out = std::move(sum);
    return true;
}

bool
cacheLoad(const std::string &cacheDir, const std::string &relPath,
          const std::string &contentSha, FileSummary &out)
{
    const std::filesystem::path entry =
        std::filesystem::path(cacheDir) / (sha256Hex(relPath) + ".sum");
    std::ifstream in(entry, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream oss;
    oss << in.rdbuf();
    FileSummary sum;
    if (!deserializeSummary(oss.str(), sum))
        return false;
    if (sum.path != relPath || sum.sha != contentSha)
        return false;
    out = std::move(sum);
    return true;
}

void
cacheStore(const std::string &cacheDir, const FileSummary &sum)
{
    std::error_code ec;
    std::filesystem::create_directories(cacheDir, ec);
    if (ec)
        return; // best-effort: an unwritable cache only costs speed
    const std::filesystem::path entry =
        std::filesystem::path(cacheDir) / (sha256Hex(sum.path) + ".sum");
    std::ofstream outFile(entry, std::ios::binary | std::ios::trunc);
    if (!outFile)
        return;
    outFile << serializeSummary(sum);
}

} // namespace lrd::lint
