// A test call never counts as a reach.
#include "api/service.hh"

int
testMain()
{
    return fixture::parseRequest(2);
}
