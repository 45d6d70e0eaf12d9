// Reaches the module through its include but calls nothing in it, so
// the replay program is parseRequest's only non-test caller.
#include "api/service.hh"

int
main()
{
    return 0;
}
