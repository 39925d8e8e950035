// Simulated power-cut injection.
//
// A CrashInjector arms the heap device's persistence ledger with a crash
// instant T: every fence completing before T snapshots its newly durable
// lines into a crash image, and everything else — dirty lines, flushed-but-
// unfenced lines, all DRAM state (write-cache staging regions, the header
// map, remembered sets, mutator handles) — is lost. TakeImage() surrenders
// "what the DIMM holds after power loss at T" for the RecoveryChecker.
//
// Crash sweeps pick instants with SweepInstants(): a seeded, deterministic
// scatter across a simulated horizon, so a failing instant reproduces from
// the seed printed by the test.

#ifndef NVMGC_SRC_RECOVERY_CRASH_INJECTOR_H_
#define NVMGC_SRC_RECOVERY_CRASH_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/nvm/persist_ledger.h"
#include "src/obs/flight_recorder.h"

namespace nvmgc {

class CrashInjector {
 public:
  // Arms `ledger` (which must already be configured by the Vm) to capture
  // the surviving image for a power cut at simulated instant `crash_ns`.
  CrashInjector(PersistOrderingLedger* ledger, uint64_t crash_ns);

  CrashInjector(const CrashInjector&) = delete;
  CrashInjector& operator=(const CrashInjector&) = delete;

  uint64_t crash_ns() const { return crash_ns_; }

  // Arms the VM's flight recorder alongside the ledger: TakeImage() then
  // dumps the flight record of the pauses leading up to the cut into
  // `dump_dir` (FrTrigger::kCrash), so a recovered heap ships with the
  // evidence of how it got there. Pass nullptr to disarm.
  void ArmFlightRecorder(FlightRecorder* recorder, std::string dump_dir) {
    flight_rec_ = recorder;
    flight_dump_dir_ = std::move(dump_dir);
  }
  const std::string& flight_dump_path() const { return flight_dump_path_; }

  // The surviving NVM state. Call once, after the run has simulated past
  // crash_ns (later fences simply stop contributing to the image).
  CrashImage TakeImage() {
    if (flight_rec_ != nullptr) {
      flight_dump_path_ = flight_rec_->Dump(FrTrigger::kCrash, flight_dump_dir_);
    }
    return ledger_->TakeCrashImage();
  }

  // Deterministic scatter of `count` crash instants in [min_ns, max_ns),
  // derived from `seed` (splitmix64). Sorted ascending.
  static std::vector<uint64_t> SweepInstants(uint64_t seed, uint64_t min_ns, uint64_t max_ns,
                                             size_t count);

 private:
  PersistOrderingLedger* ledger_;
  uint64_t crash_ns_;
  FlightRecorder* flight_rec_ = nullptr;
  std::string flight_dump_dir_;
  std::string flight_dump_path_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_RECOVERY_CRASH_INJECTOR_H_
