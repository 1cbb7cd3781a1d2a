/**
 * @file
 * Baseline suppression file for lrd-lint.
 *
 * A baseline grandfathers existing findings so a new rule can land
 * blocking without an atomic fix-the-world commit. Entries key on
 * (rule, file, symbol) — not line numbers — so they survive edits
 * that move code around. A fixed finding leaves a stale entry, which
 * `--baseline` reports as a stale-baseline finding until it is
 * deleted.
 *
 * File format, one entry per line:
 *
 *   <rule> \t <file> \t <symbol> \t <justification>
 *
 * '#'-prefixed lines and blank lines are comments. The justification
 * column is mandatory in the checked-in file by convention (review
 * rejects bare entries), but the parser only needs the first three
 * columns.
 */

#ifndef LRD_TOOLS_LINT_BASELINE_H
#define LRD_TOOLS_LINT_BASELINE_H

#include <map>
#include <string>
#include <vector>

#include "lint.h"

namespace lrd::lint {

/** Parsed baseline: suppression key -> its line in the file. */
struct Baseline
{
    std::map<std::string, int> keys;
};

/** "rule\tfile\tsymbol" — the suppression identity of a finding. */
std::string baselineKey(const Diagnostic &d);

/** Parse baseline file contents (missing file -> pass ""). */
Baseline parseBaseline(const std::string &content);

/**
 * Split diagnostics against a baseline: returns the live findings;
 * `suppressed` (if non-null) receives how many were baselined.
 */
std::vector<Diagnostic> applyBaseline(const std::vector<Diagnostic> &diags,
                                      const Baseline &baseline,
                                      size_t *suppressed);

/**
 * One stale-baseline finding per entry whose file is in `scanned` but
 * which matches none of `diags`, located at the entry's line of
 * `baselinePath`, in file order.
 */
std::vector<Diagnostic> staleBaselineEntries(
    const std::vector<Diagnostic> &diags, const Baseline &baseline,
    const std::vector<std::string> &scanned, const std::string &baselinePath);

/** Serialize findings as a fresh baseline file (sorted, unique). */
std::string renderBaseline(const std::vector<Diagnostic> &diags);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_BASELINE_H
