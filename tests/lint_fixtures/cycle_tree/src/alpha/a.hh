// Half of an include cycle between two modules the layer table does not declare.
#ifndef FIXTURE_ALPHA_A_HH
#define FIXTURE_ALPHA_A_HH
#include "beta/b.hh"
#endif
