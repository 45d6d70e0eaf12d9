/**
 * @file
 * Must compile: the control for discard_outcome.cc. Binding an
 * api::Outcome, or casting one to void on purpose, is not a discard.
 * Built alone by the compile_fail_bind_outcome ctest.
 */

#include "api/outcome.hh"

qmh::api::Outcome<int> lookup(int key);

bool
keepsTheFailure()
{
    const auto kept = lookup(1);
    static_cast<void>(lookup(2));
    return kept.ok();
}
