/**
 * @file
 * Compile-only fixture for the `discarded_error_fails_build` ctest:
 * dropping a Status or a Result<T> on the floor must not compile.
 * Both types are [[nodiscard]] and every target builds with -Werror,
 * so the compiler is the one check that no error is ever ignored.
 * This file is never linked into a binary.
 */

#include "util/status.h"

namespace {

lrd::Status
step()
{
    return lrd::Status();
}

lrd::Result<int>
value()
{
    return 4;
}

} // namespace

void
dropBoth()
{
    step();
    value();
}
