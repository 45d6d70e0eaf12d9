// Bottom tier: includes nothing.
#ifndef FIXTURE_COMMON_BASE_HH
#define FIXTURE_COMMON_BASE_HH
namespace fixture { struct Base {}; }
#endif
