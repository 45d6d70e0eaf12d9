/**
 * @file
 * Must not compile: a call that discards an api::Outcome is an error
 * in every build (class [[nodiscard]] plus -Werror=unused-result). The
 * compile_fail_discard_outcome ctest builds this alone and expects
 * the nodiscard error.
 */

#include "api/outcome.hh"

qmh::api::Outcome<int> lookup(int key);

void
dropsTheFailure()
{
    lookup(1);
}
