// A module only a test includes.
#ifndef FIXTURE_CORE_TEST_ONLY_HH
#define FIXTURE_CORE_TEST_ONLY_HH
namespace fixture {
struct TestOnlyThing
{
    int value = 0;
};
}
#endif
