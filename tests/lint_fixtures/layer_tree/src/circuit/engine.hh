// Engine tier: the downward include is fine.
#ifndef FIXTURE_CIRCUIT_ENGINE_HH
#define FIXTURE_CIRCUIT_ENGINE_HH
#include "common/base.hh"
namespace fixture { struct Engine : Base {}; }
#endif
