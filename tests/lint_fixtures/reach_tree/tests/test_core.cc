// Tests never count as a reach: neither the include of test_only.hh
// and allowed.hh nor the calls below keep anything alive.
#include "core/allowed.hh"
#include "core/test_only.hh"
#include "core/used.hh"

int
testMain()
{
    fixture::TestOnlyThing thing;
    fixture::AllowedThing allowed;
    return fixture::testOnly(thing.value) +
           fixture::allowedTestOnly(allowed.value);
}
