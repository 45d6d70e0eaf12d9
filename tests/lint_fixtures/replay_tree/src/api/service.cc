// The definition is not a use.
#include "api/service.hh"

namespace fixture {

int
parseRequest(int line)
{
    return line;
}

} // namespace fixture
