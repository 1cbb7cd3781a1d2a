/**
 * @file
 * lrd-lint CLI: walk the tree, run every rule, report.
 *
 * Usage:
 *   lrd-lint [--root <dir>] [--sarif <file>] [--baseline <file>]
 *            [--write-baseline <file>] [path...]
 *
 * With no paths the default scan set is src/, tools/, tests/, bench/,
 * examples/ and pipebench/ under the root. Paths may be files or directories and are
 * interpreted relative to the root. Findings print one per line as
 * "file:line: [rule] message". Exit status: 0 clean, 1 when
 * violations were found, 2 on usage or I/O errors.
 *
 * --sarif writes a SARIF 2.1.0 report of the live (post-baseline)
 * findings for code scanning; it is deterministic.
 *
 * --baseline suppresses findings listed in the given file (keyed by
 * rule/file/symbol) and reports each entry whose file was scanned but
 * which matched no finding as a stale-baseline finding;
 * --write-baseline regenerates that file from the current findings
 * and exits 0.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.h"
#include "lint.h"
#include "output.h"

namespace fs = std::filesystem;

namespace {

const char *kUsage =
    "usage: lrd-lint [--root <dir>] [--sarif <file>] [--baseline <file>]\n"
    "                [--write-baseline <file>] [path...]\n"
    "\n"
    "Lints the lrd tree for determinism, concurrency, layering,\n"
    "header-hygiene and cross-TU semantic invariants (hot-path\n"
    "allocations, lock order, floating-point reduction order, dead\n"
    "symbols). Default paths: src tools tests bench examples\n"
    "pipebench. Suppress one finding with '// lrd-lint:\n"
    "allow(<rule>)' on the same or preceding line; grandfather\n"
    "legacy findings via --baseline.\n";

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp" || ext == ".cxx";
}

/** Repo-relative path with forward slashes. */
std::string
relativePath(const fs::path &p, const fs::path &root)
{
    return fs::relative(p, root).generic_string();
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream oss;
    oss << in.rdbuf();
    out = oss.str();
    return true;
}

bool
writeFile(const fs::path &p, const std::string &content)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return bool(out);
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = fs::current_path();
    std::string sarifPath, baselinePath, writeBaselinePath;
    std::vector<std::string> paths;

    const auto needValue = [&](int &i, const char *flag,
                               std::string &dst) {
        if (i + 1 >= argc) {
            std::cerr << "lrd-lint: " << flag << " needs a value\n"
                      << kUsage;
            return false;
        }
        dst = argv[++i];
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::cerr << "lrd-lint: --root needs a directory\n" << kUsage;
                return 2;
            }
            root = argv[++i];
        } else if (arg == "--sarif") {
            if (!needValue(i, "--sarif", sarifPath))
                return 2;
        } else if (arg == "--baseline") {
            if (!needValue(i, "--baseline", baselinePath))
                return 2;
        } else if (arg == "--write-baseline") {
            if (!needValue(i, "--write-baseline", writeBaselinePath))
                return 2;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "lrd-lint: unknown option '" << arg << "'\n"
                      << kUsage;
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        paths = {"src", "tools", "tests", "bench", "examples", "pipebench"};

    std::error_code ec;
    root = fs::canonical(root, ec);
    if (ec) {
        std::cerr << "lrd-lint: bad root: " << ec.message() << "\n";
        return 2;
    }

    std::vector<lrd::lint::SourceFile> files;
    for (const std::string &p : paths) {
        const fs::path full = root / p;
        if (fs::is_directory(full)) {
            for (auto it = fs::recursive_directory_iterator(full);
                 it != fs::recursive_directory_iterator(); ++it) {
                if (it->is_regular_file() && isSourceFile(it->path())) {
                    lrd::lint::SourceFile f;
                    f.path = relativePath(it->path(), root);
                    if (!readFile(it->path(), f.content)) {
                        std::cerr << "lrd-lint: cannot read " << f.path
                                  << "\n";
                        return 2;
                    }
                    files.push_back(std::move(f));
                }
            }
        } else if (fs::is_regular_file(full)) {
            lrd::lint::SourceFile f;
            f.path = relativePath(full, root);
            if (!readFile(full, f.content)) {
                std::cerr << "lrd-lint: cannot read " << f.path << "\n";
                return 2;
            }
            files.push_back(std::move(f));
        } else {
            std::cerr << "lrd-lint: no such file or directory: " << p << "\n";
            return 2;
        }
    }
    // Directory iteration order is filesystem-dependent; analysis and
    // reports must not be.
    std::sort(files.begin(), files.end(),
              [](const lrd::lint::SourceFile &a,
                 const lrd::lint::SourceFile &b) { return a.path < b.path; });
    files.erase(std::unique(files.begin(), files.end(),
                            [](const lrd::lint::SourceFile &a,
                               const lrd::lint::SourceFile &b) {
                                return a.path == b.path;
                            }),
                files.end());

    std::vector<lrd::lint::Diagnostic> diags = lrd::lint::lintFiles(files);

    if (!writeBaselinePath.empty()) {
        if (!writeFile(root / writeBaselinePath,
                       lrd::lint::renderBaseline(diags))) {
            std::cerr << "lrd-lint: cannot write baseline "
                      << writeBaselinePath << "\n";
            return 2;
        }
        std::cout << "lrd-lint: wrote " << diags.size()
                  << " baseline entr" << (diags.size() == 1 ? "y" : "ies")
                  << " to " << writeBaselinePath << "\n";
        return 0;
    }

    size_t suppressed = 0;
    if (!baselinePath.empty()) {
        std::string content;
        // A missing baseline is an empty baseline: the flag can be
        // wired into CI before the first entry exists.
        readFile(root / baselinePath, content);
        const lrd::lint::Baseline baseline =
            lrd::lint::parseBaseline(content);
        std::vector<std::string> scanned;
        scanned.reserve(files.size());
        for (const lrd::lint::SourceFile &f : files)
            scanned.push_back(f.path);
        std::vector<lrd::lint::Diagnostic> stale =
            lrd::lint::staleBaselineEntries(diags, baseline, scanned,
                                            baselinePath);
        diags = lrd::lint::applyBaseline(diags, baseline, &suppressed);
        diags.insert(diags.end(), stale.begin(), stale.end());
    }

    if (!sarifPath.empty()
        && !writeFile(root / sarifPath, lrd::lint::toSarif(diags))) {
        std::cerr << "lrd-lint: cannot write " << sarifPath << "\n";
        return 2;
    }

    for (const lrd::lint::Diagnostic &d : diags)
        std::cout << lrd::lint::formatDiagnostic(d) << "\n";
    if (diags.empty())
        std::cout << "lrd-lint: " << files.size() << " files clean";
    else
        std::cout << "lrd-lint: " << diags.size() << " violation(s) in "
                  << files.size() << " files";
    if (suppressed > 0)
        std::cout << " (" << suppressed << " baselined)";
    std::cout << "\n";
    return diags.empty() ? 0 : 1;
}
