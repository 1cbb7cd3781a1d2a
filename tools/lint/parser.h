/**
 * @file
 * Lightweight C++ declaration parser for lrd-lint's cross-TU
 * analysis.
 *
 * parseFile() turns one translation unit into a FileSummary: every
 * function/method/lambda (with its qualified name, calls, allocation
 * sites, lock acquisitions and floating-point compound assignments),
 * the mutex declarations, the include list, the in-source
 * suppressions, and the identifier-use set for the liveness scan.
 * A FileSummary is everything the whole-repo phase (callgraph.h)
 * needs from one file.
 *
 * This is a heuristic parser, not a compiler front end: templates are
 * parsed by token shape, overload resolution is name matching, and
 * preprocessor conditionals contribute both branches. The semantic
 * rules are written to over-approximate reachability and
 * under-approximate certainty (a finding needs an unambiguous
 * signal), which keeps false positives rare without libclang.
 */

#ifndef LRD_TOOLS_LINT_PARSER_H
#define LRD_TOOLS_LINT_PARSER_H

#include <map>
#include <string>
#include <vector>

#include "annotations.h"
#include "lexer.h"
#include "lint.h"

namespace lrd::lint {

/** One call site inside a function body. */
struct CallSite
{
    /** Callee as written: "f", "A::B::f", or ".f" for member calls. */
    std::string name;
    int line = 0;
    /** For `x.f(...)` or `x->f(...)` on a local or parameter x of
     *  FunctionInfo::localTypes, x's declared type
     *  ("InferenceSession"); else empty. */
    std::string receiverType;
};

/** One allocation primitive inside a function body. */
struct AllocSite
{
    /** "new", "malloc", ".push_back", "make_unique", "vector(n)", ... */
    std::string what;
    int line = 0;
    /** As CallSite::receiverType, for a growth member (".append"):
     *  when it names an in-tree class with that method, the site is a
     *  call, not container growth. */
    std::string receiverType;
};

/** One mutex acquisition (lock_guard/unique_lock/scoped_lock/.lock). */
struct LockSite
{
    /** Last identifier of the mutex expression ("mu_", "mu"). */
    std::string mutexName;
    int line = 0;
};

/** One floating-point compound assignment (+= -= *= /=). */
struct FpWrite
{
    std::string var;
    int line = 0;
};

/** One function or method definition, or a lambda. */
struct FunctionInfo
{
    /** Last name component ("parallelFor"); lambdas: "<lambda>". */
    std::string name;
    /** Qualified name ("lrd::ThreadPool::parallelFor"); anonymous
     *  namespaces contribute "(anon)", lambdas "<lambda#N>" (the
     *  N-th lambda directly inside its enclosing function). */
    std::string qualName;
    int line = 0;
    bool isLambda = false;
    /** Internal linkage: anonymous namespace or file-static. */
    bool internal = false;
    /** Constructor, destructor, operator, or main: exempt from the
     *  dead-symbol rule. */
    bool special = false;
    /** Index (into FileSummary::functions) of the enclosing function
     *  for lambdas; -1 otherwise. */
    int enclosing = -1;
    /** Callee name when this lambda is written directly inside a call
     *  argument list ("parallelFor", ".parallelFor", "scoreWith"). */
    std::string passedTo;
    /** Local variable this lambda initializes (`auto f = [...]`), whose
     *  calls in the enclosing function name the lambda; else empty. */
    std::string boundTo;
    std::vector<std::string> params;
    /** Parameter / local names declared as scalar float or double. */
    std::vector<std::string> floatLocals;
    /** Locals declared `T x;`, `T x(args)`, `T x{args}` or
     *  `T x = ...`, and reference or pointer parameters `T &x`: name ->
     *  the last identifier of T ("InferenceSession", "vector"). */
    std::map<std::string, std::string> localTypes;
    std::vector<CallSite> calls;
    std::vector<AllocSite> allocs;
    std::vector<LockSite> locks;
    std::vector<FpWrite> fpWrites;
};

/** One namespace-scope or class-scope mutex declaration. */
struct MutexDecl
{
    std::string name;
    /** Enclosing type for members; empty at namespace scope. */
    std::string klass;
    int line = 0;
};

/** Everything the cross-TU phase needs from one file. */
struct FileSummary
{
    std::string path;
    std::vector<FunctionInfo> functions;
    std::vector<IncludeDirective> includes;
    std::vector<MutexDecl> mutexes;
    Annotations annotations;
    /**
     * Sorted unique identifiers used in the file, excluding each
     * declaration's own name token — so a symbol whose name appears
     * only where it is declared/defined counts as unreferenced.
     */
    std::vector<std::string> usedIdentifiers;
    /** Per-file token-rule findings (suppressions already applied). */
    std::vector<Diagnostic> fileDiags;
};

/**
 * Parse one file: lex it once, run the per-file token rules, and
 * extract the declaration summary.
 */
FileSummary parseFile(const SourceFile &file);

/** The per-file token rules (lintFile()) over an already-lexed file. */
std::vector<Diagnostic> lintLexed(const SourceFile &file,
                                  const LexedFile &lexed,
                                  const Annotations &ann);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_PARSER_H
