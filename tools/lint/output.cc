#include "output.h"

#include <cstdio>
#include <sstream>

namespace lrd::lint {

namespace {

/** Every rule id with a one-line description, for the SARIF tool
 *  metadata. Kept in one fixed order so output stays stable. */
struct RuleDoc
{
    const char *id;
    const char *text;
};

const RuleDoc kRuleDocs[] = {
    {kRuleBannedRandom, "Ad-hoc randomness outside src/util/rng"},
    {kRuleWallClock, "Wall-clock read that breaks reproducibility"},
    {kRuleUnordered, "Unordered container in the numeric core"},
    {kRuleThread, "Raw threading outside src/parallel"},
    {kRuleNonconstGlobal, "Unsynchronized mutable global"},
    {kRuleHeaderGuard, "Missing include guard"},
    {kRuleUsingNamespace, "using namespace at namespace scope in a header"},
    {kRuleLayering, "Include layering back-edge"},
    {kRuleCycle, "Include cycle"},
    {kRuleNakedThrow, "throw outside src/util"},
    {kRuleBlockingSleep, "Blocking sleep outside tools/"},
    {kRuleIntrinsics, "SIMD intrinsics outside src/tensor/simd"},
    {kRuleHotPathAlloc, "Allocation reachable from a hot path"},
    {kRuleLockDiscipline, "Lock acquisition order cycle"},
    {kRuleFpOrder,
     "Unordered floating-point reduction in a parallel chunk body"},
    {kRuleDeadSymbol, "Public function with no in-tree caller"},
    {kRuleStaleBaseline, "Baseline entry that matches no finding"},
};

/** Escape a string for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
toSarif(const std::vector<Diagnostic> &diags)
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"lrd-lint\",\n"
        << "          \"version\": \"2.0.0\",\n"
        << "          \"rules\": [\n";
    const size_t nRules = sizeof kRuleDocs / sizeof kRuleDocs[0];
    for (size_t i = 0; i < nRules; ++i) {
        oss << "            {\"id\": \"" << kRuleDocs[i].id
            << "\", \"shortDescription\": {\"text\": \""
            << kRuleDocs[i].text << "\"}}"
            << (i + 1 < nRules ? "," : "") << "\n";
    }
    oss << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        oss << "        {\n"
            << "          \"ruleId\": \"" << jsonEscape(d.rule)
            << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": {\"text\": \""
            << jsonEscape(d.message) << "\"},\n"
            << "          \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << jsonEscape(d.file)
            << "\"}, \"region\": {\"startLine\": "
            << (d.line > 0 ? d.line : 1) << "}}}]";
        if (!d.symbol.empty())
            oss << ",\n          \"partialFingerprints\": "
                   "{\"symbol\": \""
                << jsonEscape(d.symbol) << "\"}";
        oss << "\n        }" << (i + 1 < diags.size() ? "," : "")
            << "\n";
    }
    oss << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return oss.str();
}

} // namespace lrd::lint
