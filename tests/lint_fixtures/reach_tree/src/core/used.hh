// A module an entry point includes: one function it calls, one only
// the module itself calls, one only a test calls, one nothing calls,
// and one only a test calls that carries a justified allow().
#ifndef FIXTURE_CORE_USED_HH
#define FIXTURE_CORE_USED_HH
namespace fixture {
int entryCall(int x);
int moduleHelper(int x);
int testOnly(int x);
int calledNowhere(int x);
// qmh-lint: allow(test-only-api): fixture reference that a test reads
int allowedTestOnly(int x);
}
#endif
