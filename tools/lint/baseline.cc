#include "baseline.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace lrd::lint {

std::string
baselineKey(const Diagnostic &d)
{
    return d.rule + "\t" + d.file + "\t" + d.symbol;
}

Baseline
parseBaseline(const std::string &content)
{
    Baseline out;
    std::istringstream iss(content);
    std::string line;
    int lineNo = 0;
    while (std::getline(iss, line)) {
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        // Key = first three tab-separated columns.
        size_t tabs = 0, end = line.size();
        for (size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '\t' && ++tabs == 3) {
                end = i;
                break;
            }
        }
        if (tabs < 2)
            continue; // malformed: fewer than three columns
        out.keys.emplace(line.substr(0, end), lineNo);
    }
    return out;
}

std::vector<Diagnostic>
applyBaseline(const std::vector<Diagnostic> &diags,
              const Baseline &baseline, size_t *suppressed)
{
    std::vector<Diagnostic> live;
    size_t hits = 0;
    for (const Diagnostic &d : diags) {
        if (baseline.keys.count(baselineKey(d)))
            ++hits;
        else
            live.push_back(d);
    }
    if (suppressed)
        *suppressed = hits;
    return live;
}

std::vector<Diagnostic>
staleBaselineEntries(const std::vector<Diagnostic> &diags,
                     const Baseline &baseline,
                     const std::vector<std::string> &scanned,
                     const std::string &baselinePath)
{
    std::set<std::string> matched;
    for (const Diagnostic &d : diags)
        matched.insert(baselineKey(d));
    const std::set<std::string> files(scanned.begin(), scanned.end());
    std::vector<Diagnostic> stale;
    for (const auto &[key, line] : baseline.keys) {
        const size_t tab1 = key.find('\t');
        const size_t tab2 = key.find('\t', tab1 + 1);
        const std::string file = key.substr(tab1 + 1, tab2 - tab1 - 1);
        if (matched.count(key) || !files.count(file))
            continue;
        Diagnostic d;
        d.file = baselinePath;
        d.line = line;
        d.rule = kRuleStaleBaseline;
        d.symbol = key.substr(tab2 + 1);
        d.message = "entry '" + key.substr(0, tab1) + "' for " + d.symbol
                    + " in " + file + " matches no finding; delete it";
        stale.push_back(std::move(d));
    }
    std::sort(stale.begin(), stale.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return a.line < b.line;
              });
    return stale;
}

std::string
renderBaseline(const std::vector<Diagnostic> &diags)
{
    std::vector<std::string> lines;
    lines.reserve(diags.size());
    for (const Diagnostic &d : diags)
        lines.push_back(baselineKey(d) + "\tTODO: justify or fix");
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());

    std::ostringstream oss;
    oss << "# lrd-lint baseline: grandfathered findings.\n"
        << "# Format: rule<TAB>file<TAB>symbol<TAB>justification.\n"
        << "# Every entry needs a justification; fix-and-remove is\n"
        << "# always preferred over adding entries.\n";
    for (const std::string &l : lines)
        oss << l << "\n";
    return oss.str();
}

} // namespace lrd::lint
