/**
 * @file
 * In-source lint suppressions, shared by the token rules and the
 * cross-TU semantic rules:
 *
 *   // lrd-lint: allow(<rule>[, <rule>...])   suppress on this/next line
 *
 * The token rules consume them at lintFile() time; the semantic rules
 * read them from each file's FileSummary.
 */

#ifndef LRD_TOOLS_LINT_ANNOTATIONS_H
#define LRD_TOOLS_LINT_ANNOTATIONS_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace lrd::lint {

/** Suppression state parsed out of a file's comments. */
struct Annotations
{
    /** line -> rules allowed on that line and the next. */
    std::map<int, std::set<std::string>> allows;
};

/**
 * Parse "lrd-lint: allow(a, b)" markers. Unknown directives are
 * ignored (forward compatibility).
 */
Annotations parseAnnotations(const std::vector<Comment> &comments);

/** True when `rule` is allowed on `line` (same or preceding line). */
bool isSuppressed(const Annotations &ann, int line,
                  const std::string &rule);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_ANNOTATIONS_H
