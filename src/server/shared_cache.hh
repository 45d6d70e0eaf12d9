/** @file Former names of opt::ResultCache, kept for perfbench. */

#ifndef QMH_SERVER_SHARED_CACHE_HH
#define QMH_SERVER_SHARED_CACHE_HH

#include "opt/result_cache.hh"

namespace qmh {
namespace server {

using SharedCache = opt::ResultCache;
using SharedCacheConfig = opt::ResultCacheConfig;
using SharedCacheStats = opt::ResultCacheStats;

} // namespace server
} // namespace qmh

#endif // QMH_SERVER_SHARED_CACHE_HH
