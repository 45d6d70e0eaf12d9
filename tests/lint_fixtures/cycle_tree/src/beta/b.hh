// The other half of the undeclared-module include cycle.
#ifndef FIXTURE_BETA_B_HH
#define FIXTURE_BETA_B_HH
#include "alpha/a.hh"
#endif
