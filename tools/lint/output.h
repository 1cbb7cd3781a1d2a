/**
 * @file
 * The machine-readable report: SARIF 2.1.0, which CI uploads to
 * GitHub code scanning. It is deterministic: the same diagnostics
 * produce byte-identical output.
 */

#ifndef LRD_TOOLS_LINT_OUTPUT_H
#define LRD_TOOLS_LINT_OUTPUT_H

#include <string>
#include <vector>

#include "lint.h"

namespace lrd::lint {

/** SARIF 2.1.0 log with one run; results in input order. */
std::string toSarif(const std::vector<Diagnostic> &diags);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_OUTPUT_H
