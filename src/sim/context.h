// Bundle of simulation state shared by one "machine": clock + cost model + counters.
//
// Everything running against the same emulated PM device shares one Context, mirroring
// one physical host in the paper's testbed.
#ifndef SRC_SIM_CONTEXT_H_
#define SRC_SIM_CONTEXT_H_

#include "src/obs/obs.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/stats.h"

namespace sim {

struct Context {
  Clock clock;
  CostModel model;
  Stats stats;
  // Observability plane of this machine: span tracer, metrics registry, contention
  // ledger. Observes the clock, never drives it (see src/obs/obs.h).
  obs::Observability obs;

  // Convenience charge helpers used across the FS implementations. ------------------

  // One user<->kernel round trip.
  void ChargeSyscall() {
    clock.Advance(model.syscall_ns);
    stats.AddSyscall();
  }

  // CPU-only work (DRAM bookkeeping) in kernel or user space.
  void ChargeCpu(uint64_t ns) { clock.Advance(ns); }

  // Faulting one pre-populated 2 MB huge-page mapping.
  void ChargeHugePageSetup() {
    clock.Advance(model.huge_page_fault_ns);
    stats.AddPageFault(1);
  }

  void Reset() {
    clock.Reset();
    stats.Reset();
    obs.Reset();
  }
};

}  // namespace sim

#endif  // SRC_SIM_CONTEXT_H_
