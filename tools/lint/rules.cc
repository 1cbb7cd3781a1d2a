/**
 * @file
 * Per-file token rules: banned randomness, wall-clock use, unordered
 * containers in the numeric core, raw threading outside the pool,
 * unsynchronized mutable globals, and header hygiene.
 */

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "parser.h"

namespace lrd::lint {

namespace {

/** Modules where unordered-container iteration order could leak
 *  into numeric results (reductions, factor updates, batch order). */
const std::set<std::string> kNumericCore = {"linalg", "tensor", "decomp",
                                            "train"};

const std::set<std::string> kBannedRandom = {
    "rand",          "srand",       "rand_r",        "drand48",
    "lrand48",       "mrand48",     "random_device", "mt19937",
    "mt19937_64",    "minstd_rand", "minstd_rand0",  "default_random_engine",
    "knuth_b",       "ranlux24",    "ranlux48",
};

const std::set<std::string> kWallClock = {
    "system_clock", "gettimeofday", "localtime", "gmtime",
    "ctime",        "strftime",     "timespec_get",
};

const std::set<std::string> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

const std::set<std::string> kBlockingSleep = {
    "sleep_for", "sleep_until", "usleep", "nanosleep",
};

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    const size_t dot = path.rfind('.');
    if (dot == std::string::npos)
        return false;
    const std::string ext = path.substr(dot);
    return ext == ".h" || ext == ".hh" || ext == ".hpp";
}

/** Collector that applies suppressions at emission time. */
struct Sink
{
    const SourceFile &file;
    const Annotations &ann;
    std::vector<Diagnostic> &out;

    void emit(int line, const char *rule, std::string message)
    {
        if (isSuppressed(ann, line, rule))
            return;
        out.push_back(
            Diagnostic{file.path, line, rule, std::move(message), ""});
    }
};

/** True when tokens[i] is an identifier preceded by `std ::`. */
bool
stdQualified(const std::vector<Token> &toks, size_t i)
{
    return i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std";
}

void
checkBannedIdentifiers(const SourceFile &file, const std::vector<Token> &toks,
                       Sink &sink)
{
    const bool rngHome = startsWith(file.path, "src/util/rng.");
    const bool threadHome = startsWith(file.path, "src/parallel/") ||
                            startsWith(file.path, "src/util/worker_lane.");
    const bool throwHome =
        !startsWith(file.path, "src/") || startsWith(file.path, "src/util/");
    // Only operator tooling may block on a timeout; library code must
    // never sleep.
    const bool sleepHome = startsWith(file.path, "tools/");
    const std::string mod = moduleOf(file.path);
    const bool numericCore =
        startsWith(file.path, "src/") && kNumericCore.count(mod) > 0;

    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;

        if (!rngHome && kBannedRandom.count(t.text)) {
            sink.emit(t.line, kRuleBannedRandom,
                      "'" + t.text +
                          "' breaks run-to-run determinism; use "
                          "lrd::Rng (src/util/rng.h) with a fixed seed");
        }
        if (kWallClock.count(t.text)) {
            sink.emit(t.line, kRuleWallClock,
                      "'" + t.text +
                          "' reads the wall clock; results seeded or "
                          "keyed on it are not reproducible (use "
                          "steady_clock for intervals, lrd::Rng for seeds)");
        }
        if ((t.text == "time" || t.text == "clock") && i + 1 < toks.size() &&
            toks[i + 1].text == "(" &&
            (i == 0 || toks[i - 1].text != ".") &&
            (i == 0 || toks[i - 1].text != "->")) {
            sink.emit(t.line, kRuleWallClock,
                      "'" + t.text +
                          "()' is a wall-clock read; never seed or key "
                          "deterministic state on it");
        }
        if (!throwHome && t.text == "throw") {
            sink.emit(t.line, kRuleNakedThrow,
                      "'throw' outside src/util: report failures as "
                      "lrd::Status / lrd::Result (util/status.h) or "
                      "call fatal()/panic() (util/logging.h)");
        }
        if (numericCore && kUnordered.count(t.text)) {
            sink.emit(t.line, kRuleUnordered,
                      "'std::" + t.text + "' in numeric-core module '" + mod +
                          "': iteration order is unspecified and would "
                          "make reductions thread-count- and "
                          "seed-dependent; use std::map or a sorted vector");
        }
        if (!sleepHome && kBlockingSleep.count(t.text)) {
            sink.emit(t.line, kRuleBlockingSleep,
                      "'" + t.text +
                          "' blocks a pool lane; sleeps belong in tools/ "
                          "only");
        }
        if (!threadHome) {
            const bool stdThread =
                (t.text == "thread" || t.text == "jthread" ||
                 t.text == "async") &&
                stdQualified(toks, i);
            const bool rawPthread = startsWith(t.text, "pthread_");
            if (stdThread || rawPthread) {
                sink.emit(t.line, kRuleThread,
                          "raw threading ('" + t.text +
                              "') outside src/parallel/: use "
                              "lrd::ThreadPool so work keeps its "
                              "deterministic lane structure");
            }
        }
    }
}

/** Intrinsics headers that only src/tensor/simd/ may include. */
const std::set<std::string> kIntrinsicsHeaders = {
    "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
    "smmintrin.h", "avxintrin.h", "avx2intrin.h", "avx512fintrin.h",
    "arm_neon.h",  "arm_sve.h",
};

/** True for identifiers that belong to the x86/NEON intrinsics
 *  surface: _mm and __m128/__m256/__m512 prefixed names, NEON vector
 *  types (float32x4_t, ...) and vector lane ops (vld1q_f32,
 *  vfmaq_f32). */
bool
isIntrinsicIdentifier(const std::string &s)
{
    if (startsWith(s, "_mm") || startsWith(s, "__m128") ||
        startsWith(s, "__m256") || startsWith(s, "__m512"))
        return true;
    // NEON vector types: <elem><bits>x<lanes>_t.
    if (s.size() > 2 && s.find("x") != std::string::npos &&
        s.rfind("_t") == s.size() - 2 &&
        (startsWith(s, "float32x") || startsWith(s, "float64x") ||
         startsWith(s, "int8x") || startsWith(s, "int16x") ||
         startsWith(s, "int32x") || startsWith(s, "int64x") ||
         startsWith(s, "uint8x") || startsWith(s, "uint16x") ||
         startsWith(s, "uint32x") || startsWith(s, "uint64x")))
        return true;
    // NEON lane ops: v<op>q_<type> / v<op>_<type> (vld1q_f32,
    // vdupq_n_f32, vaddq_f32, ...). Require the type suffix so plain
    // identifiers like 'value' or 'visit' never match.
    if (s.size() > 4 && s[0] == 'v') {
        for (const char *suffix :
             {"_f32", "_f64", "_s8", "_s16", "_s32", "_s64", "_u8",
              "_u16", "_u32", "_u64"}) {
            const std::string suf(suffix);
            if (s.size() > suf.size() &&
                s.rfind(suf) == s.size() - suf.size())
                return true;
        }
    }
    return false;
}

/**
 * Confine raw SIMD to the microkernel layer: only src/tensor/simd/
 * may include intrinsics headers or spell intrinsic identifiers.
 * Everything else goes through the dispatched gemm entry points, so
 * a new ISA level lands in exactly one directory and the scalar
 * fallback can never silently diverge.
 */
void
checkIntrinsicsConfinement(const SourceFile &file, const LexedFile &lexed,
                           Sink &sink)
{
    if (startsWith(file.path, "src/tensor/simd/"))
        return;
    for (const IncludeDirective &inc : lexed.includes) {
        if (kIntrinsicsHeaders.count(inc.target)) {
            sink.emit(inc.line, kRuleIntrinsics,
                      "intrinsics header <" + inc.target +
                          "> outside src/tensor/simd/: SIMD kernels "
                          "live behind the dispatch table "
                          "(tensor/simd/simd.h) so every caller gets "
                          "the runtime-selected level and the scalar "
                          "fallback stays reachable");
        }
    }
    for (const Token &t : lexed.tokens) {
        if (t.kind == TokKind::Identifier && isIntrinsicIdentifier(t.text)) {
            sink.emit(t.line, kRuleIntrinsics,
                      "intrinsic '" + t.text +
                          "' outside src/tensor/simd/: call the "
                          "dispatched gemm/pack entry points instead "
                          "of open-coding SIMD");
        }
    }
}

/** Kind of scope a `{` opens, for namespace-scope tracking. */
enum class BraceKind { Namespace, Type, Init, Other };

/** Tokens considered "safe" markers for a namespace-scope variable. */
const std::set<std::string> kSafeGlobalMarkers = {
    "const",       "constexpr",     "constinit",
    "atomic",      "atomic_flag",   "atomic_int",
    "mutex",       "shared_mutex",  "recursive_mutex",
    "once_flag",   "condition_variable",
    "thread_local",
};

/** Statement starters that are never variable definitions. */
const std::set<std::string> kNonVariableStarters = {
    "using",  "typedef", "friend", "static_assert", "template",
    "extern", "class",   "struct", "union",         "enum",
    "namespace",
};

/**
 * Walk the token stream tracking namespace scope and classify every
 * namespace-scope statement; emit nonconst-global for mutable
 * variables lacking a safe marker, and using-namespace-header for
 * headers.
 */
void
checkNamespaceScope(const SourceFile &file, const std::vector<Token> &toks,
                    Sink &sink)
{
    const bool header = isHeaderPath(file.path);
    std::vector<BraceKind> stack;
    std::vector<Token> stmt;

    const auto atNamespaceScope = [&] {
        for (BraceKind k : stack)
            if (k != BraceKind::Namespace)
                return false;
        return true;
    };

    const auto classifyBrace = [&](const std::vector<Token> &window) {
        int parens = 0;
        bool sawParen = false, sawEq = false, sawType = false,
             sawNamespace = false;
        for (const Token &t : window) {
            if (t.text == "(") {
                ++parens;
                sawParen = true;
            } else if (t.text == ")") {
                --parens;
            } else if (parens > 0) {
                continue;
            } else if (t.text == "=") {
                sawEq = true;
            } else if (t.text == "namespace") {
                sawNamespace = true;
            } else if (t.text == "class" || t.text == "struct" ||
                       t.text == "union" || t.text == "enum") {
                sawType = true;
            }
        }
        if (sawNamespace)
            return BraceKind::Namespace;
        // Inside an unbalanced '(' the brace is a default argument
        // or initializer expression, part of the statement.
        if (sawEq || parens > 0)
            return BraceKind::Init;
        if (sawType && !sawParen)
            return BraceKind::Type;
        return BraceKind::Other;
    };

    const auto flushStatement = [&] {
        if (stmt.empty())
            return;
        const int line = stmt.front().line;

        if (header && stmt.size() >= 2 && stmt[0].text == "using" &&
            stmt[1].text == "namespace") {
            sink.emit(line, kRuleUsingNamespace,
                      "'using namespace' at namespace scope in a header "
                      "leaks into every includer; qualify names instead");
        }
        if (kNonVariableStarters.count(stmt.front().text)) {
            stmt.clear();
            return;
        }
        // Function declaration/definition: '(' before any '='.
        size_t eqPos = stmt.size(), parenPos = stmt.size();
        int angles = 0;
        for (size_t i = 0; i < stmt.size(); ++i) {
            const std::string &s = stmt[i].text;
            if (s == "<")
                ++angles;
            else if (s == ">")
                angles = std::max(0, angles - 1);
            else if (angles > 0)
                continue;
            else if (s == "=" && eqPos == stmt.size())
                eqPos = i;
            else if (s == "(" && parenPos == stmt.size())
                parenPos = i;
            else if (s == "operator") {
                stmt.clear();
                return;
            }
        }
        if (parenPos < eqPos) { // function-ish, not a variable
            stmt.clear();
            return;
        }
        bool safe = false;
        for (const Token &t : stmt)
            if (kSafeGlobalMarkers.count(t.text)) {
                safe = true;
                break;
            }
        if (!safe) {
            std::string name;
            for (size_t i = 0; i < std::min(eqPos, stmt.size()); ++i)
                if (stmt[i].kind == TokKind::Identifier)
                    name = stmt[i].text;
            sink.emit(line, kRuleNonconstGlobal,
                      "mutable namespace-scope variable" +
                          (name.empty() ? std::string()
                                        : " '" + name + "'") +
                          " without std::atomic or const is a data-race "
                          "and determinism hazard; justify a guarded "
                          "one with '// lrd-lint: allow(nonconst-global)'");
        }
        stmt.clear();
    };

    size_t i = 0;
    std::vector<Token> window; // tokens since last statement boundary
    while (i < toks.size()) {
        const Token &t = toks[i];
        if (t.text == "{") {
            const BraceKind kind = classifyBrace(window);
            window.clear();
            if (kind == BraceKind::Namespace) {
                flushStatement();
                stmt.clear();
                stack.push_back(kind);
                ++i;
                continue;
            }
            // Balanced skip: the contents are not namespace scope.
            if (atNamespaceScope()) {
                stmt.push_back(t);
                int depth = 1;
                ++i;
                while (i < toks.size() && depth > 0) {
                    if (toks[i].text == "{")
                        ++depth;
                    else if (toks[i].text == "}")
                        --depth;
                    if (depth > 0)
                        stmt.push_back(toks[i]);
                    ++i;
                }
                // A type or function body may end without ';'
                // (e.g. `void f() { ... }`); classify eagerly.
                if (kind != BraceKind::Init)
                    stmt.clear();
                continue;
            }
            stack.push_back(kind);
            ++i;
            continue;
        }
        if (t.text == "}") {
            flushStatement();
            window.clear();
            if (!stack.empty())
                stack.pop_back();
            ++i;
            continue;
        }
        if (atNamespaceScope()) {
            if (t.text == ";") {
                flushStatement();
                window.clear();
            } else {
                stmt.push_back(t);
                window.push_back(t);
            }
        }
        ++i;
    }
    flushStatement();
}

void
checkHeaderGuard(const SourceFile &file, const LexedFile &lexed, Sink &sink)
{
    if (!isHeaderPath(file.path))
        return;
    for (const Directive &d : lexed.directives)
        if (d.name == "pragma" && d.arg == "once")
            return;
    const auto &dirs = lexed.directives;
    if (dirs.size() >= 2 && dirs[0].name == "ifndef" &&
        dirs[1].name == "define" && dirs[0].arg == dirs[1].arg)
        return;
    sink.emit(1, kRuleHeaderGuard,
              "header lacks '#pragma once' or a leading "
              "#ifndef/#define include guard");
}

} // namespace

std::vector<Diagnostic>
lintFile(const SourceFile &file)
{
    const LexedFile lexed = lex(file.content);
    return lintLexed(file, lexed, parseAnnotations(lexed.comments));
}

std::vector<Diagnostic>
lintLexed(const SourceFile &file, const LexedFile &lexed,
          const Annotations &ann)
{
    std::vector<Diagnostic> out;
    Sink sink{file, ann, out};

    checkBannedIdentifiers(file, lexed.tokens, sink);
    checkIntrinsicsConfinement(file, lexed, sink);
    checkNamespaceScope(file, lexed.tokens, sink);
    checkHeaderGuard(file, lexed, sink);
    return out;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream oss;
    oss << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
    return oss.str();
}

} // namespace lrd::lint
