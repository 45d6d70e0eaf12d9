// Suppressed upward edge: the justified allow() covers the include.
#ifndef FIXTURE_COMMON_UPWARD_ALLOWED_HH
#define FIXTURE_COMMON_UPWARD_ALLOWED_HH
// qmh-lint: allow(layering): fixture demonstrating a justified exception
#include "circuit/engine.hh"
#endif
