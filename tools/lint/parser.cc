/**
 * @file
 * Declaration parser: token stream -> FileSummary.
 *
 * One forward pass with an explicit scope stack. Namespace and type
 * scopes classify each statement (namespace / type / function /
 * variable / initializer); function bodies are scanned by a separate
 * routine that records calls, lambdas, allocation primitives, lock
 * acquisitions and floating-point compound assignments.
 */

#include "parser.h"

#include <algorithm>
#include <map>
#include <set>

#include "lint.h"

namespace lrd::lint {

namespace {

const std::set<std::string> kControlKeywords = {
    "if",     "for",      "while",  "switch",      "return", "sizeof",
    "alignof", "decltype", "catch",  "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "noexcept", "do", "else",
    "case",   "break",    "continue", "goto",      "throw",  "delete",
    "new",    "co_return", "co_await", "co_yield", "defined",
    "static_assert", "alignas", "typeid", "requires", "assert",
};

const std::set<std::string> kStatementStarters = {
    "using", "typedef", "friend", "static_assert", "extern", "class",
    "struct", "union", "enum", "namespace", "template", "public",
    "private", "protected",
};

/** Heap-allocating free functions (called by name). */
const std::set<std::string> kAllocCalls = {
    "malloc",      "calloc",      "realloc",    "aligned_alloc",
    "strdup",      "posix_memalign", "make_unique", "make_shared",
    "to_string",
};

/** Containers whose construction with arguments (`T x(n)`) allocates. */
const std::set<std::string> kSizedContainers = {
    "vector", "string", "deque",
};

/** Container/string members that (may) grow their allocation. */
const std::set<std::string> kGrowthMembers = {
    "push_back", "emplace_back", "emplace", "resize",  "reserve",
    "insert",    "append",       "assign",  "push_front",
    "emplace_front",
};

const std::set<std::string> kLockWrappers = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
};

/** std lock tags that are not mutexes. */
const std::set<std::string> kLockTags = {
    "defer_lock", "try_to_lock", "adopt_lock",
};

const std::set<std::string> kMutexTypes = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex",
};

bool
isIdent(const Token &t)
{
    return t.kind == TokKind::Identifier;
}

/**
 * One parameter list, fed its top-level tokens segment by segment
 * (flush() at each top-level ',' and at the end). A segment's last
 * identifier before any default value is the parameter; a scalar
 * float/double one is a float local, and a reference or pointer one
 * records its type's last identifier in localTypes (`Session &s` ->
 * "Session"), as a local's declaration does.
 */
class ParamList
{
  public:
    explicit ParamList(FunctionInfo &fn) : fn_(fn) {}

    void
    token(const Token &t)
    {
        const std::string &s = t.text;
        if (s == "=")
            sawDefault_ = true;
        if (sawDefault_)
            return;
        if (isIdent(t) && s != "const" && s != "volatile") {
            type_ = name_;
            name_ = s;
        }
        if (s == "float" || s == "double")
            sawFloat_ = true;
        if (s == "*" || s == "&" || s == "&&")
            sawPtr_ = true;
    }

    void
    flush()
    {
        if (!name_.empty()) {
            fn_.params.push_back(name_);
            if (sawFloat_ && !sawPtr_)
                fn_.floatLocals.push_back(name_);
            if (sawPtr_ && !type_.empty())
                fn_.localTypes[name_] = type_;
        }
        name_.clear();
        type_.clear();
        sawFloat_ = sawPtr_ = sawDefault_ = false;
    }

  private:
    FunctionInfo &fn_;
    std::string name_, type_;
    bool sawFloat_ = false, sawPtr_ = false, sawDefault_ = false;
};

/** One entry of the lexical scope the parser walks. */
struct ScopeName
{
    std::string name; ///< "(anon)" for anonymous namespaces.
    bool isType = false;
    bool isAnon = false;
};

class DeclParser
{
  public:
    DeclParser(const LexedFile &lexed, FileSummary &out)
        : toks_(lexed.tokens), out_(out)
    {
        for (const Token &t : lexed.directiveTokens)
            ++useCount_[t.text];
    }

    void
    run()
    {
        for (const Token &t : toks_)
            if (isIdent(t))
                ++useCount_[t.text];
        i_ = 0;
        parseOuter();
        for (const auto &[name, count] : useCount_)
            if (count > 0)
                out_.usedIdentifiers.push_back(name);
    }

  private:
    const std::vector<Token> &toks_;
    FileSummary &out_;
    size_t i_ = 0;
    std::vector<ScopeName> scope_;
    std::map<std::string, int> useCount_;

    bool done() const { return i_ >= toks_.size(); }
    const Token &cur() const { return toks_[i_]; }
    const Token *
    peek(size_t off = 1) const
    {
        return i_ + off < toks_.size() ? &toks_[i_ + off] : nullptr;
    }

    /** Name token at a declaration site is not a "use". */
    void
    notDeclUse(const std::string &name)
    {
        const auto it = useCount_.find(name);
        if (it != useCount_.end())
            --it->second;
    }

    std::string
    scopePrefix() const
    {
        std::string out;
        for (const ScopeName &s : scope_) {
            if (!out.empty())
                out += "::";
            out += s.name;
        }
        return out;
    }

    bool
    inAnonNamespace() const
    {
        return std::any_of(scope_.begin(), scope_.end(),
                           [](const ScopeName &s) { return s.isAnon; });
    }

    std::string
    enclosingTypeName() const
    {
        for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
            if (it->isType)
                return it->name;
        return "";
    }

    /** Skip tokens until the matching close of the opener at i_. */
    void
    skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (!done()) {
            if (cur().text == open)
                ++depth;
            else if (cur().text == close && --depth == 0) {
                ++i_;
                return;
            }
            ++i_;
        }
    }

    // ------------------------------------------------ outer scopes

    /**
     * Parse statements at namespace/type scope until the matching
     * '}' of the enclosing scope (or end of file at top level).
     */
    void
    parseOuter()
    {
        std::vector<Token> stmt;
        while (!done()) {
            const Token &t = cur();
            if (t.text == "}") {
                ++i_;
                return;
            }
            if (t.text == ";") {
                ++i_;
                classifyTerminated(stmt);
                stmt.clear();
                continue;
            }
            if (t.text == "{") {
                handleOuterBrace(stmt);
                stmt.clear();
                continue;
            }
            stmt.push_back(t);
            ++i_;
        }
    }

    /** Statement ended in ';' at namespace/type scope. */
    void
    classifyTerminated(std::vector<Token> stmt)
    {
        stripTemplatePrefix(stmt);
        if (stmt.empty())
            return;
        if (stmt.front().text == "using" || stmt.front().text == "typedef"
            || stmt.front().text == "friend"
            || stmt.front().text == "static_assert")
            return;
        const size_t parenPos = topLevelParen(stmt);
        const size_t eqPos = topLevelEq(stmt);
        const bool operatorish = containsOperatorKeyword(stmt);
        if ((parenPos < eqPos || operatorish) && parenPos < stmt.size()) {
            // Function prototype (or `= default` / `= delete`).
            registerFunction(stmt, parenPos, /*declOnly=*/true);
            return;
        }
        registerVariable(stmt);
    }

    /** Statement hit '{' at namespace/type scope: decide what opens. */
    void
    handleOuterBrace(std::vector<Token> stmt)
    {
        stripTemplatePrefix(stmt);

        // namespace [name] {
        if (!stmt.empty() && stmt.front().text == "namespace") {
            std::string name;
            for (size_t k = 1; k < stmt.size(); ++k) {
                if (stmt[k].text == "::")
                    name += "::";
                else if (isIdent(stmt[k]))
                    name += stmt[k].text;
            }
            ScopeName s;
            s.isAnon = name.empty();
            s.name = name.empty() ? "(anon)" : name;
            ++i_; // '{'
            scope_.push_back(s);
            parseOuter();
            scope_.pop_back();
            return;
        }

        const size_t parenPos = topLevelParen(stmt);
        const size_t eqPos = topLevelEq(stmt);
        const bool operatorish = containsOperatorKeyword(stmt);
        const bool typeish = !stmt.empty()
                             && std::any_of(stmt.begin(), stmt.end(),
                                            [](const Token &t) {
                                                return t.text == "class"
                                                       || t.text == "struct"
                                                       || t.text == "union"
                                                       || t.text == "enum";
                                            });

        if ((parenPos < eqPos || operatorish) && parenPos < stmt.size()
            && !typeish) {
            // Function definition: register, then scan the body.
            const int fnIdx =
                registerFunction(stmt, parenPos, /*declOnly=*/false);
            ++i_; // '{'
            if (fnIdx >= 0)
                parseBody(fnIdx);
            else
                skipBody();
            return;
        }
        if (typeish && parenPos == stmt.size()) {
            // class/struct/union/enum definition.
            std::string name;
            for (const Token &t : stmt) {
                if (t.text == ":")
                    break; // base clause
                if (isIdent(t) && t.text != "class" && t.text != "struct"
                    && t.text != "union" && t.text != "enum"
                    && t.text != "final" && t.text != "alignas")
                    name = t.text;
            }
            ScopeName s;
            s.isType = true;
            s.name = name.empty() ? "(type)" : name;
            ++i_; // '{'
            scope_.push_back(s);
            parseOuter();
            scope_.pop_back();
            return;
        }
        // Initializer (`= { ... }`) or anything else: skip balanced.
        skipBalanced("{", "}");
    }

    /** Consume a body we are not interested in. */
    void
    skipBody()
    {
        int depth = 1;
        while (!done() && depth > 0) {
            if (cur().text == "{")
                ++depth;
            else if (cur().text == "}")
                --depth;
            ++i_;
        }
    }

    // ------------------------------------------- statement helpers

    static void
    stripTemplatePrefix(std::vector<Token> &stmt)
    {
        while (stmt.size() >= 2 && stmt.front().text == "template"
               && stmt[1].text == "<") {
            int depth = 0;
            size_t k = 1;
            for (; k < stmt.size(); ++k) {
                if (stmt[k].text == "<")
                    ++depth;
                else if (stmt[k].text == ">" && --depth == 0) {
                    ++k;
                    break;
                }
            }
            stmt.erase(stmt.begin(),
                       stmt.begin() + static_cast<long>(k));
        }
    }

    /** First '(' outside angle brackets, or stmt.size(). */
    static size_t
    topLevelParen(const std::vector<Token> &stmt)
    {
        int angles = 0;
        for (size_t k = 0; k < stmt.size(); ++k) {
            const std::string &s = stmt[k].text;
            if (s == "<")
                ++angles;
            else if (s == ">")
                angles = std::max(0, angles - 1);
            else if (s == "(" && angles == 0)
                return k;
        }
        return stmt.size();
    }

    /** First top-level '=' (assignment, not inside parens/angles). */
    static size_t
    topLevelEq(const std::vector<Token> &stmt)
    {
        int angles = 0, parens = 0;
        for (size_t k = 0; k < stmt.size(); ++k) {
            const std::string &s = stmt[k].text;
            if (s == "<")
                ++angles;
            else if (s == ">")
                angles = std::max(0, angles - 1);
            else if (s == "(")
                ++parens;
            else if (s == ")")
                parens = std::max(0, parens - 1);
            else if (s == "=" && angles == 0 && parens == 0)
                return k;
        }
        return stmt.size();
    }

    static bool
    containsOperatorKeyword(const std::vector<Token> &stmt)
    {
        return std::any_of(stmt.begin(), stmt.end(), [](const Token &t) {
            return t.text == "operator";
        });
    }

    /**
     * Register a function definition from its heading statement; a
     * prototype (`declOnly`) only marks its name token as a
     * declaration, not a use. Returns the index into out_.functions,
     * or -1 for a prototype or a statement that turned out not to be
     * a function after all.
     */
    int
    registerFunction(const std::vector<Token> &stmt, size_t parenPos,
                     bool declOnly)
    {
        FunctionInfo fn;

        // Function-pointer variable: `int (*fp)(...)`.
        if (parenPos + 1 < stmt.size() && stmt[parenPos + 1].text == "*")
            return -1;

        size_t nameEnd = parenPos; // one past the name chain
        std::vector<std::string> chain;
        if (containsOperatorKeyword(stmt)) {
            fn.name = "operator";
            fn.special = true;
            for (size_t k = 0; k < parenPos; ++k)
                if (stmt[k].text == "operator")
                    fn.line = stmt[k].line;
        } else {
            // Walk the `A::B::name` chain backwards from the paren.
            size_t k = parenPos;
            if (k == 0)
                return -1;
            --k;
            if (!isIdent(stmt[k]))
                return -1;
            chain.push_back(stmt[k].text);
            fn.line = stmt[k].line;
            while (k >= 2 && stmt[k - 1].text == "::"
                   && isIdent(stmt[k - 2])) {
                k -= 2;
                chain.insert(chain.begin(), stmt[k].text);
            }
            // Destructor: `~X()`.
            if (k >= 1 && stmt[k - 1].text == "~") {
                chain.front() = "~" + chain.front();
                fn.special = true;
            }
            nameEnd = k;
            fn.name = chain.back();
        }

        if (kControlKeywords.count(fn.name)
            || kStatementStarters.count(fn.name))
            return -1;

        for (size_t k = 0; k < nameEnd; ++k)
            if (stmt[k].text == "static")
                fn.internal = true;
        // Matching close of the parameter list.
        size_t closeParen = stmt.size();
        {
            int depth = 0;
            for (size_t k = parenPos; k < stmt.size(); ++k) {
                if (stmt[k].text == "(")
                    ++depth;
                else if (stmt[k].text == ")" && --depth == 0) {
                    closeParen = k;
                    break;
                }
            }
        }

        // Parameters: last identifier of each top-level segment.
        if (!fn.special && closeParen > parenPos) {
            int depth = 0, angles = 0;
            ParamList params(fn);
            for (size_t k = parenPos + 1; k < closeParen; ++k) {
                const std::string &s = stmt[k].text;
                if (s == "(" || s == "[")
                    ++depth;
                else if (s == ")" || s == "]")
                    --depth;
                else if (s == "<")
                    ++angles;
                else if (s == ">")
                    angles = std::max(0, angles - 1);
                else if (s == "," && depth == 0 && angles == 0)
                    params.flush();
                else if (depth == 0 && angles == 0)
                    params.token(stmt[k]);
            }
            params.flush();
        }

        fn.internal = fn.internal || inAnonNamespace();
        const std::string enclosingType = enclosingTypeName();
        if (fn.name == "main" || fn.name == enclosingType
            || (chain.size() >= 2 && fn.name == chain[chain.size() - 2])
            || (!fn.name.empty() && fn.name[0] == '~'))
            fn.special = true;

        std::string qual = scopePrefix();
        for (const std::string &c : chain) {
            if (!qual.empty())
                qual += "::";
            qual += c;
        }
        if (chain.empty()) {
            if (!qual.empty())
                qual += "::";
            qual += fn.name;
        }
        fn.qualName = qual;

        notDeclUse(fn.name);
        if (declOnly)
            return -1;
        out_.functions.push_back(std::move(fn));
        return static_cast<int>(out_.functions.size() - 1);
    }

    /** Non-function ';'-terminated statement at outer scope. */
    void
    registerVariable(const std::vector<Token> &stmt)
    {
        if (stmt.empty() || kStatementStarters.count(stmt.front().text))
            return;
        const size_t eqPos = topLevelEq(stmt);
        std::string name;
        int line = 0;
        bool isMutex = false;
        for (size_t k = 0; k < std::min(eqPos, stmt.size()); ++k) {
            if (kMutexTypes.count(stmt[k].text))
                isMutex = true;
            if (isIdent(stmt[k]) && !kMutexTypes.count(stmt[k].text)
                && stmt[k].text != "std" && stmt[k].text != "const"
                && stmt[k].text != "mutable" && stmt[k].text != "static"
                && stmt[k].text != "inline"
                && stmt[k].text != "constexpr") {
                name = stmt[k].text;
                line = stmt[k].line;
            }
        }
        if (name.empty())
            return;
        if (isMutex) {
            notDeclUse(name);
            out_.mutexes.push_back(MutexDecl{name, enclosingTypeName(),
                                             line});
            return;
        }
        if (enclosingTypeName().empty())
            notDeclUse(name); // a namespace-scope variable's declaration
    }

    // ------------------------------------------------- body scans

    /**
     * Scan one function (or lambda) body, cursor just past its '{'.
     * Records calls, allocs, locks, fp compound assignments and nested
     * lambdas.
     */
    void
    parseBody(int fnIdx)
    {
        int depth = 1;
        // Innermost-first stack of pending call expressions: the
        // callee name for each open '(' ("" for grouping parens).
        std::vector<std::string> callStack;
        std::vector<Token> stmt;

        const auto fn = [&]() -> FunctionInfo & {
            return out_.functions[static_cast<size_t>(fnIdx)];
        };

        while (!done()) {
            const Token &t = cur();

            if (t.text == "{") {
                noteDeclaration(fn(), stmt); // `T x{args}`
                ++depth;
                stmt.clear();
                ++i_;
                continue;
            }
            if (t.text == "}") {
                if (--depth == 0) {
                    ++i_;
                    return;
                }
                stmt.clear();
                ++i_;
                continue;
            }
            if (t.text == ";" && callStack.empty()) {
                noteDeclaration(fn(), stmt); // `T x;`
                stmt.clear();
                ++i_;
                continue;
            }

            // Attribute `[[...]]` vs lambda introducer `[...]`.
            if (t.text == "[") {
                const Token *nxt = peek();
                if (nxt && nxt->text == "[") {
                    skipAttribute();
                    continue;
                }
                if (lambdaIntroducer(stmt)) {
                    parseLambda(fnIdx, callStack, stmt);
                    stmt.clear();
                    continue;
                }
                stmt.push_back(t);
                ++i_;
                continue;
            }

            if (t.text == "(") {
                callStack.push_back(calleeBefore(stmt, fn()));
                stmt.push_back(t);
                ++i_;
                continue;
            }
            if (t.text == ")") {
                if (!callStack.empty())
                    callStack.pop_back();
                stmt.push_back(t);
                ++i_;
                continue;
            }

            if (isIdent(t)) {
                scanIdentifier(fn(), stmt);
                stmt.push_back(t);
                ++i_;
                continue;
            }

            // `T x = ...` (not `==`).
            if (t.text == "=" && !(peek() && peek()->text == "="))
                noteDeclaration(fn(), stmt);

            // Compound assignment on the previous token.
            if ((t.text == "+" || t.text == "-" || t.text == "*"
                 || t.text == "/")
                && peek() && peek()->text == "="
                && peek()->line == t.line && !stmt.empty()
                && isIdent(stmt.back()))
                fn().fpWrites.push_back(FpWrite{stmt.back().text, t.line});

            stmt.push_back(t);
            ++i_;
        }
    }

    /** Cursor on the first '[' of '[['; skip to past ']]'. */
    void
    skipAttribute()
    {
        int depth = 0;
        while (!done()) {
            if (cur().text == "[")
                ++depth;
            else if (cur().text == "]" && --depth == 0) {
                ++i_;
                return;
            }
            ++i_;
        }
    }

    /** Is a '[' at the cursor a lambda introducer? */
    bool
    lambdaIntroducer(const std::vector<Token> &stmt) const
    {
        if (stmt.empty())
            return true;
        const Token &prev = stmt.back();
        if (prev.kind == TokKind::Identifier
            && !kControlKeywords.count(prev.text)
            && prev.text != "return" && prev.text != "case")
            return false; // subscript or array declarator
        if (prev.kind == TokKind::Number || prev.text == ")"
            || prev.text == "]")
            return false;
        return true;
    }

    /**
     * Parse a lambda starting at its '[' introducer: register it as
     * a function of its own and scan its body. `stmt` holds the
     * statement's tokens before the introducer.
     */
    void
    parseLambda(int enclosingIdx, const std::vector<std::string> &callStack,
                const std::vector<Token> &stmt)
    {
        const int line = cur().line;
        FunctionInfo fn;
        fn.isLambda = true;
        fn.special = true;
        fn.line = line;
        fn.enclosing = enclosingIdx;
        fn.internal = true;
        fn.name = "<lambda>";
        for (auto it = callStack.rbegin(); it != callStack.rend(); ++it)
            if (!it->empty()) {
                fn.passedTo = *it;
                break;
            }
        // `auto f = [...]`: calls to f inside the enclosing function
        // invoke this lambda.
        if (callStack.empty() && stmt.size() >= 2 && stmt.back().text == "="
            && isIdent(stmt[stmt.size() - 2]))
            fn.boundTo = stmt[stmt.size() - 2].text;

        skipBalanced("[", "]"); // capture list (identifiers counted
                                // as uses by the initial pass)

        // Optional parameter list.
        if (!done() && cur().text == "(") {
            int depth = 0, angles = 0;
            ParamList params(fn);
            while (!done()) {
                const std::string &s = cur().text;
                if (s == "(") {
                    ++depth;
                } else if (s == ")") {
                    if (--depth == 0) {
                        ++i_;
                        break;
                    }
                } else if (s == "<") {
                    ++angles;
                } else if (s == ">") {
                    angles = std::max(0, angles - 1);
                } else if (s == "," && depth == 1 && angles == 0) {
                    params.flush();
                } else if (depth == 1 && angles == 0) {
                    params.token(cur());
                }
                ++i_;
            }
            params.flush();
        }

        // Specifiers / trailing return type up to the body.
        while (!done() && cur().text != "{" && cur().text != ";"
               && cur().text != ")" && cur().text != ",")
            ++i_;
        if (done() || cur().text != "{")
            return; // not a lambda body after all (e.g. declarator)

        // Name it by its ordinal among the lambdas of the enclosing
        // function, so a baseline entry survives lines moving above it.
        const auto ordinal =
            1 + std::count_if(out_.functions.begin(), out_.functions.end(),
                              [&](const FunctionInfo &f) {
                                  return f.isLambda
                                         && f.enclosing == enclosingIdx;
                              });
        fn.qualName =
            out_.functions[static_cast<size_t>(enclosingIdx)].qualName
            + "::<lambda#" + std::to_string(ordinal) + ">";
        out_.functions.push_back(std::move(fn));
        const int idx = static_cast<int>(out_.functions.size() - 1);
        ++i_; // '{'
        parseBody(idx);
    }

    /**
     * The callee name for a '(' about to open, from the statement
     * tokens before it: "f", "A::B::f" or ".f"; "" when the paren is
     * grouping. Also records the call site (and allocation sites for
     * the curated allocating names).
     */
    std::string
    calleeBefore(const std::vector<Token> &stmt, FunctionInfo &fn)
    {
        if (stmt.empty())
            return "";
        size_t k = stmt.size();
        // Skip one balanced template argument list: foo<int>(...)
        if (stmt.back().text == ">") {
            k = matchingAngle(stmt, stmt.size() - 1);
            if (k == stmt.size() || k == 0 || !isIdent(stmt[k - 1]))
                return "";
        }
        if (k == 0 || !isIdent(stmt[k - 1]))
            return "";
        const Token &nameTok = stmt[k - 1];
        if (kControlKeywords.count(nameTok.text))
            return "";
        std::string name = nameTok.text;
        size_t j = k - 1;
        bool member = false;
        while (j > 0) {
            if (stmt[j - 1].text == "::" && j >= 2 && isIdent(stmt[j - 2])) {
                name = stmt[j - 2].text + "::" + name;
                j -= 2;
                continue;
            }
            // `.f` or `->f` (the lexer splits -> into '-' '>').
            member = stmt[j - 1].text == "."
                     || (stmt[j - 1].text == ">" && j >= 2
                         && stmt[j - 2].text == "-");
            break;
        }
        // `T x(args)` declares x: no call named x.
        const std::string declaredType =
            member || name != nameTok.text ? ""
                                           : declaredTypeBefore(stmt, k - 1);
        if (!declaredType.empty())
            fn.localTypes[nameTok.text] = declaredType;
        const std::string receiverType =
            member ? receiverTypeOf(stmt, j - 1, fn) : "";
        const std::string recorded = member ? "." + nameTok.text : name;
        if (declaredType.empty())
            fn.calls.push_back(
                CallSite{recorded, nameTok.line, receiverType});

        // Allocation primitives. `emplace` on a std::optional builds
        // in place and allocates nothing of its own.
        if (member && kGrowthMembers.count(nameTok.text)
            && !(nameTok.text == "emplace" && receiverType == "optional"))
            fn.allocs.push_back(
                AllocSite{"." + nameTok.text, nameTok.line, receiverType});
        else if (!member && kAllocCalls.count(nameTok.text))
            fn.allocs.push_back(AllocSite{nameTok.text, nameTok.line, ""});
        // `std::vector<float> x(n)`: a container declared with
        // constructor arguments allocates.
        const std::string sized = sizedContainerBefore(stmt, k - 1);
        if (!sized.empty() && peek() && peek()->text != ")")
            fn.allocs.push_back(AllocSite{sized + "(n)", nameTok.line, ""});
        return declaredType.empty() ? recorded : "";
    }

    /**
     * The type T of a declaration `T x` whose name is stmt[nameIdx]
     * (`Session s`, `const lrd::Session s`, `std::vector<float> v`):
     * T's last identifier ("Session", "vector"); "" when stmt[nameIdx]
     * follows no type name.
     */
    static std::string
    declaredTypeBefore(const std::vector<Token> &stmt, size_t nameIdx)
    {
        if (!isIdent(stmt[nameIdx]))
            return "";
        size_t t = nameIdx;
        if (closesTemplateType(stmt, nameIdx))
            t = matchingAngle(stmt, nameIdx - 1);
        if (t == 0 || !isIdent(stmt[t - 1]))
            return "";
        const std::string &type = stmt[t - 1].text;
        if (kControlKeywords.count(type) || kStatementStarters.count(type))
            return "";
        return type;
    }

    /** Record the declaration `T x` that ends `stmt` in fn.localTypes. */
    static void
    noteDeclaration(FunctionInfo &fn, const std::vector<Token> &stmt)
    {
        if (stmt.empty())
            return;
        const std::string type = declaredTypeBefore(stmt, stmt.size() - 1);
        if (!type.empty())
            fn.localTypes[stmt.back().text] = type;
    }

    /**
     * The declared type of x in a member call `x.f(` or `x->f(` whose
     * '.' or '>' is stmt[dot], looked up in fn and the functions
     * enclosing it; "" for a member chain (`a.x.f(`) or an undeclared x.
     */
    std::string
    receiverTypeOf(const std::vector<Token> &stmt, size_t dot,
                   const FunctionInfo &fn) const
    {
        if (stmt[dot].text == ">")
            --dot; // `->` lexes as '-' '>'
        else if (stmt[dot].text != ".")
            return "";
        if (dot == 0 || !isIdent(stmt[dot - 1]))
            return "";
        if (dot >= 2
            && (stmt[dot - 2].text == "." || stmt[dot - 2].text == "::"
                || (stmt[dot - 2].text == ">" && dot >= 3
                    && stmt[dot - 3].text == "-")))
            return "";
        for (const FunctionInfo *f = &fn;;
             f = &out_.functions[static_cast<size_t>(f->enclosing)]) {
            const auto it = f->localTypes.find(stmt[dot - 1].text);
            if (it != f->localTypes.end())
                return it->second;
            if (f->enclosing < 0)
                return "";
        }
    }

    /** Index of the '<' matching the '>' at stmt[close], or
     *  stmt.size() when there is none. */
    static size_t
    matchingAngle(const std::vector<Token> &stmt, size_t close)
    {
        int depth = 0;
        for (size_t j = close + 1; j > 0;) {
            --j;
            if (stmt[j].text == ">")
                ++depth;
            else if (stmt[j].text == "<" && --depth == 0)
                return j;
        }
        return stmt.size();
    }

    /**
     * Is stmt[nameIdx - 1] the '>' closing a template argument list
     * that follows a type name (`std::vector<float> x`), as opposed to
     * a comparison (`a > f(x)`) or the '>' of `->`?
     */
    static bool
    closesTemplateType(const std::vector<Token> &stmt, size_t nameIdx)
    {
        if (nameIdx < 2 || stmt[nameIdx - 1].text != ">"
            || stmt[nameIdx - 2].text == "-")
            return false;
        const size_t open = matchingAngle(stmt, nameIdx - 1);
        return open != stmt.size() && open > 0 && isIdent(stmt[open - 1]);
    }

    /**
     * The sized-container type ("vector", "string", "deque") written
     * just before stmt[nameIdx], through one template argument list
     * (`std::vector<float> x`, `std::string s`); "" otherwise.
     */
    static std::string
    sizedContainerBefore(const std::vector<Token> &stmt, size_t nameIdx)
    {
        size_t t = nameIdx;
        if (t > 0 && stmt[t - 1].text == ">") {
            t = matchingAngle(stmt, t - 1);
            if (t == stmt.size())
                return "";
        }
        if (t == 0 || !kSizedContainers.count(stmt[t - 1].text))
            return "";
        return stmt[t - 1].text;
    }

    /** Identifier at the cursor: new/alloc/lock-wrapper handling. */
    void
    scanIdentifier(FunctionInfo &fn, const std::vector<Token> &stmt)
    {
        const Token &t = cur();
        if (t.text == "new") {
            fn.allocs.push_back(AllocSite{"new", t.line, ""});
            return;
        }
        if (t.text == "float" || t.text == "double") {
            // Scalar local declaration: `double acc` (not `double *p`).
            const Token *nxt = peek();
            if (nxt && isIdent(*nxt))
                fn.floatLocals.push_back(nxt->text);
            return;
        }
        if (kLockWrappers.count(t.text))
            scanLockWrapper(fn, t.text);
        // `mu.lock()` / `mu_->lock()`: acquisition of the object.
        if (t.text == "lock" && peek() && peek()->text == "("
            && peek(2) && peek(2)->text == ")" && stmt.size() >= 2) {
            const Token &sep = stmt.back();
            if ((sep.text == "." || sep.text == ">")
                && isIdent(stmt[stmt.size() - 2]))
                fn.locks.push_back(
                    LockSite{stmt[stmt.size() - 2].text, t.line});
        }
    }

    /**
     * Cursor on a lock-wrapper identifier (lock_guard/...). Scan
     * forward (without consuming — the main loop re-walks) for the
     * guarded mutex name(s): wrapper [<...>] var ( arg [, arg...] ).
     */
    void
    scanLockWrapper(FunctionInfo &fn, const std::string &wrapper)
    {
        size_t j = i_ + 1;
        const auto tok = [&](size_t idx) -> const Token * {
            return idx < toks_.size() ? &toks_[idx] : nullptr;
        };
        // Optional template argument list.
        if (tok(j) && tok(j)->text == "<") {
            int depth = 0;
            for (; j < toks_.size(); ++j) {
                if (toks_[j].text == "<")
                    ++depth;
                else if (toks_[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        // Guard variable name.
        if (!tok(j) || !isIdent(*tok(j)))
            return;
        ++j;
        if (!tok(j) || tok(j)->text != "(")
            return;
        // Arguments: one mutex per top-level comma segment
        // (scoped_lock locks several), skipping std lock tags.
        int depth = 0;
        std::string lastIdent;
        const bool multi = wrapper == "scoped_lock";
        bool first = true;
        const auto flush = [&](int line) {
            if (!lastIdent.empty() && !kLockTags.count(lastIdent)
                && (multi || first))
                fn.locks.push_back(LockSite{lastIdent, line});
            first = false;
            lastIdent.clear();
        };
        for (; j < toks_.size(); ++j) {
            const std::string &s = toks_[j].text;
            if (s == "(") {
                ++depth;
            } else if (s == ")") {
                if (--depth == 0) {
                    flush(toks_[j].line);
                    break;
                }
            } else if (s == "," && depth == 1) {
                flush(toks_[j].line);
            } else if (depth == 1 && isIdent(toks_[j])) {
                lastIdent = toks_[j].text;
            }
        }
    }
};

} // namespace

FileSummary
parseFile(const SourceFile &file)
{
    FileSummary sum;
    sum.path = file.path;

    const LexedFile lexed = lex(file.content);
    sum.includes = lexed.includes;
    sum.annotations = parseAnnotations(lexed.comments);
    sum.fileDiags = lintLexed(file, lexed, sum.annotations);

    DeclParser parser(lexed, sum);
    parser.run();
    return sum;
}

} // namespace lrd::lint
