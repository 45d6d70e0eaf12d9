// The perfbench-like caller. It reads a clock, which the per-file
// rules would flag: entry directories that are not lint roots are read
// for includes and identifiers only.
#include <chrono>

#include "api/service.hh"

int
replay()
{
    const auto begin = std::chrono::steady_clock::now();
    (void)begin;
    return fixture::parseRequest(1);
}
