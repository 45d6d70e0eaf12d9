// Declares a function only the perfbench-like replay program and a
// test call.
#ifndef FIXTURE_API_SERVICE_HH
#define FIXTURE_API_SERVICE_HH
namespace fixture {
int parseRequest(int line);
}
#endif
