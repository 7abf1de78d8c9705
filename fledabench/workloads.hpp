// The benchmark's workloads and its replay ledger. Each workload runs
// in its own process; main.cpp dispatches on --workload.
#pragma once

#include <cstdint>
#include <string>

#include "fl/client.hpp"
#include "harness.hpp"
#include "models/registry.hpp"

namespace fledabench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;  // scratch space for dataset caches
};

// Sub-seed tags: one independent stream per consumer of the seed.
enum SeedTag : std::uint64_t {
  kTagData = 1,
  kTagTrain = 2,
  kTagClients = 3,
  kTagParticipation = 4,
  kTagSim = 5,
  kTagInit = 6,
  kTagLocal = 7,
  kTagReplay = 8,
};

// fleet_10k geometry: K clients over the nine synthetic datasets, a
// uniformly sampled cohort of C per round, the 2-channel 8x8 FLNet.
inline constexpr std::size_t kFleetClients = 10000;
inline constexpr int kFleetCohort = 200;
inline constexpr int kFleetRounds = 40;
inline constexpr std::int64_t kFleetChannels = 2;
inline constexpr std::int64_t kFleetGrid = 8;
inline constexpr int kFleetBatch = 1;
inline constexpr int kFleetSteps = 1;
// A fleet client's local training: kFleetSteps steps at kFleetBatch.
fleda::ClientTrainConfig fleet_client_config();

// paper_flnet / paper_routenet: Experiment at smoke scale, every paper
// row by registry name.
void run_paper(const RunArgs& args, fleda::ModelKind model, Report& report);
// fleet_10k: FedAvg over kFleetClients clients, trimmed_mean, int8 up.
void run_fleet(const RunArgs& args, Report& report);

// The per-layer replay ledger (ledger.cpp): every public call of the
// layers below the workloads, replayed at each model's workload
// geometry. Identical rows for every workload.
void run_ledger(const RunArgs& args, Report& report);
// Checks that the replayed layers still match the models; prints each
// finding to stderr and returns whether all held.
bool ledger_self_test();

}  // namespace fledabench
