// bagdet: the library has no thread pool. Each decision runs on its calling
// thread, and a DeterminacyService parallelizes across requests.
//
// This header remains only because the pipeline benchmark still includes it
// and calls SetGlobalThreadPoolSize (perfbench/serving.cpp,
// perfbench/selftest.cpp, perfbench/closed_loop.cpp). Delete it once those
// call sites are gone.

#ifndef BAGDET_UTIL_THREAD_POOL_H_
#define BAGDET_UTIL_THREAD_POOL_H_

#include <cstddef>

namespace bagdet {

/// No-op: nothing in the library reads a pool width.
inline void SetGlobalThreadPoolSize(std::size_t /*parallelism*/) {}

}  // namespace bagdet

#endif  // BAGDET_UTIL_THREAD_POOL_H_
