// A module only a test includes, suppressed with a reason.
// qmh-lint: allow(unreachable-module): fixture module a test keeps
#ifndef FIXTURE_CORE_ALLOWED_HH
#define FIXTURE_CORE_ALLOWED_HH
namespace fixture {
struct AllowedThing
{
    int value = 0;
};
}
#endif
