// Reached through used.cc, so its allow() suppresses nothing.
// qmh-lint: allow(unreachable-module): stale marker, the module is reached
#ifndef FIXTURE_CORE_STALE_HH
#define FIXTURE_CORE_STALE_HH
namespace fixture {
struct StaleThing
{
    int value = 0;
};
}
#endif
