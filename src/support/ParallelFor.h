//===- support/ParallelFor.h - The one worker pool ------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor, the worker pool every parallel loop in the library runs
/// on: fault-injection campaigns (one unit per injection run) and SVM
/// model selection (one unit per (C, fold) fit). Workers claim indices
/// dynamically, so one slow unit (a hang running to its step budget)
/// delays only the worker that claimed it.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_SUPPORT_PARALLELFOR_H
#define IPAS_SUPPORT_PARALLELFOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ipas {

/// Runs Body(0) .. Body(N - 1), each exactly once, on up to \p Workers
/// threads (the caller is one of them; Workers <= 1 runs every index
/// inline on the caller) that claim indices in ascending order. Every
/// thread is joined on every path. The first exception a body throws
/// stops further claims and is rethrown here once all threads have
/// joined; a thread that cannot start only means less parallelism.
/// Returns the number of threads that ran the loop.
template <typename BodyFn>
unsigned parallelFor(size_t N, unsigned Workers, BodyFn &&Body) {
  size_t Want =
      std::min<size_t>(std::max(Workers, 1u), std::max<size_t>(N, 1));
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  std::exception_ptr Error;
  auto Work = [&] {
    for (size_t K; (K = Next.fetch_add(1)) < N;) {
      try {
        Body(K);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMu);
        if (!Error)
          Error = std::current_exception();
        Next.store(N);
      }
    }
  };
  std::vector<std::thread> Pool;
  try {
    Pool.reserve(Want - 1);
    while (Pool.size() + 1 < Want)
      Pool.emplace_back(Work);
  } catch (...) {
    // The threads that did start and the caller claim every index.
  }
  Work();
  for (std::thread &Th : Pool)
    Th.join();
  if (Error)
    std::rethrow_exception(Error);
  return static_cast<unsigned>(Pool.size() + 1);
}

/// The worker count for a loop that should use the whole machine.
inline unsigned hardwareWorkers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The worker count for the pipeline's fault-injection campaigns: half
/// the hardware threads, at least one. A campaign is one fork-join loop
/// of a few dozen runs, so it ends with its slowest worker. On a virtual
/// machine that shares its host, the CPU time the host takes away
/// (steal) grows with the CPUs a process keeps busy, so a worker on
/// every hardware thread makes campaign time follow the host's load. On
/// a 4-vCPU KVM guest (HPCCG pipeline, ten 30 s runs per setting) four
/// workers spread throughput 15% between runs against 11% serial; two
/// matched serial at 11% and still cut wall time by about 40%.
inline unsigned campaignWorkers() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

} // namespace ipas

#endif // IPAS_SUPPORT_PARALLELFOR_H
