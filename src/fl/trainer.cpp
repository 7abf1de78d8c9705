#include "fl/trainer.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace fleda {

std::vector<double> client_weights(const std::vector<Client>& clients) {
  std::vector<double> weights;
  weights.reserve(clients.size());
  for (const Client& c : clients) {
    weights.push_back(static_cast<double>(c.num_train()));
  }
  return weights;
}

std::vector<ModelParameters> FederatedAlgorithm::run(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts) {
  Channel channel(opts.comm);
  channel.set_links(links_from_profiles(opts.sim, clients.size()));
  SimEngine engine(opts.sim, opts.comm, clients.size());
  engine.set_trace_enabled(opts.trace);
  FederationSim sim(channel, engine);
  // Direct algo.run() callers get FLEDA_TELEMETRY_FILE streaming even
  // without wiring a sink themselves; an explicit sink wins.
  std::unique_ptr<TelemetrySink> env_sink;
  TelemetrySink* telemetry = opts.telemetry;
  if (telemetry == nullptr) {
    const std::string path = TelemetrySink::env_path();
    if (!path.empty()) {
      env_sink = std::make_unique<TelemetrySink>(path);
      telemetry = env_sink.get();
    }
  }
  sim.set_telemetry(telemetry);
  // Defense wiring: an explicit detector/book wins; otherwise run()
  // creates private ones when the config calls for them. The book only
  // fills when a detector feeds it, so reputation-weighted sampling
  // without either is a silent uniform fallback — rejected instead.
  std::unique_ptr<AnomalyDetector> own_detector;
  AnomalyDetector* detector = opts.detector;
  if (detector == nullptr && opts.anomaly.enabled) {
    own_detector = std::make_unique<AnomalyDetector>(opts.anomaly);
    detector = own_detector.get();
  }
  std::unique_ptr<ReputationBook> own_book;
  ReputationBook* reputation = opts.reputation;
  const bool wants_reputation =
      opts.participation.kind == ParticipationKind::kReputationWeighted;
  if (reputation == nullptr && wants_reputation) {
    if (detector == nullptr) {
      throw std::invalid_argument(
          "FederatedAlgorithm::run: kReputationWeighted participation "
          "needs verdicts to weight by — set FLRunOptions::anomaly.enabled "
          "(or pass detector/reputation explicitly)");
    }
    own_book = std::make_unique<ReputationBook>();
    reputation = own_book.get();
  }
  sim.set_anomaly(detector, reputation);
  // Importance weights for kImportanceSample: each client's sample
  // count (more data = more informative per round), optionally scaled
  // by (1 + last training loss) so clients whose local objective is
  // still high are revisited sooner. Evaluated at select time on the
  // coordinator thread; `clients` outlives the policy.
  ImportanceSample::WeightProvider importance;
  if (opts.participation.kind == ParticipationKind::kImportanceSample) {
    const bool by_loss = opts.participation.loss_weighted;
    importance = [&clients, by_loss](std::size_t k) {
      double w = static_cast<double>(clients[k].num_train());
      if (by_loss) {
        w *= 1.0 + static_cast<double>(clients[k].last_train_loss());
      }
      return w;
    };
  }
  std::unique_ptr<ParticipationPolicy> participation =
      make_participation_policy(opts.participation, reputation,
                                std::move(importance));
  std::vector<ModelParameters> finals =
      run_rounds(clients, factory, opts, sim, *participation);
  if (opts.comm_stats != nullptr) *opts.comm_stats = channel.stats();
  if (opts.sim_report != nullptr) *opts.sim_report = engine.report();
  return finals;
}

std::vector<ModelParameters> FederatedAlgorithm::run_rounds_of(
    FederatedAlgorithm& algo, std::vector<Client>& clients,
    const ModelFactory& factory, const FLRunOptions& opts,
    FederationSim& sim, ParticipationPolicy& participation) {
  return algo.run_rounds(clients, factory, opts, sim, participation);
}

std::unique_ptr<AggregationRule> FederatedAlgorithm::sync_aggregation_rule(
    const FLRunOptions& opts) {
  if (opts.aggregation.rule.empty()) {
    return std::make_unique<WeightedAverage>();
  }
  std::unique_ptr<AggregationRule> rule =
      make_aggregation_rule(opts.aggregation);
  if (rule->folds_into_current()) {
    // A mixing rule treats its cohort as deltas; fed the sync
    // barrier's full-parameter updates it would compound the model
    // geometrically (global += mix * avg(full models)) and "diverge"
    // with no attacker in sight.
    throw std::invalid_argument(
        "aggregation rule '" + rule->name() +
        "' folds deltas into the current model and cannot aggregate a "
        "synchronous round's full-parameter updates (use it with "
        "AsyncFedAvg, or pick an averaging rule)");
  }
  return rule;
}

std::vector<std::size_t> FederatedAlgorithm::select_cohort(
    ParticipationPolicy& participation, int round, std::size_t num_clients,
    const FLRunOptions& opts, const FederationSim& sim) {
  ParticipationContext ctx;
  ctx.round = round;
  ctx.num_clients = num_clients;
  ctx.now = sim.now();
  ctx.sim = &opts.sim;
  return participation.select(ctx);
}

std::invalid_argument FederatedAlgorithm::empty_cohort_error(
    const std::string& algo, int round) {
  return std::invalid_argument(
      algo + ": empty cohort in round " + std::to_string(round) +
      " — no client contributed (did the participation policy sample only "
      "offline clients?)");
}

namespace {

// The channel's parallel encode/decode touches per-client state
// (error-feedback residuals, downlink references), which is only safe
// for distinct indices — require the policies' strictly ascending
// order instead of racing on duplicates.
void validate_cohort(const char* where, std::size_t num_clients,
                     const std::vector<std::size_t>& cohort) {
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    if (cohort[i] >= num_clients) {
      throw std::out_of_range(std::string(where) + ": client index " +
                              std::to_string(cohort[i]) + " >= " +
                              std::to_string(num_clients));
    }
    if (i > 0 && cohort[i] <= cohort[i - 1]) {
      throw std::invalid_argument(
          std::string(where) +
          ": cohort indices must be strictly ascending (got " +
          std::to_string(cohort[i]) + " after " +
          std::to_string(cohort[i - 1]) + ")");
    }
  }
}

// Adaptive attackers carry state (their trajectory estimate) across
// rounds. Slot pointers are gathered on the coordinator thread —
// growing the deque inside a parallel loop would race — and each slot
// is touched only by its owning client's iteration.
std::vector<AttackState*> gather_attack_states(
    FederationSim& sim, const std::vector<std::size_t>& cohort) {
  std::vector<AttackState*> states(cohort.size(), nullptr);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    if (sim.engine().profile(cohort[i]).attack.kind ==
        AttackKind::kAdaptiveScaled) {
      states[i] = sim.attack_state(cohort[i]);
    }
  }
  return states;
}

void record_cohort_telemetry(FederationSim& sim,
                             const std::vector<std::size_t>& cohort) {
  TelemetrySink* sink = sim.telemetry();
  if (sink == nullptr) return;
  int attackers = 0;
  for (std::size_t k : cohort) {
    if (sim.engine().profile(k).attack.kind != AttackKind::kNone) {
      ++attackers;
    }
  }
  sink->record_cohort(static_cast<int>(cohort.size()), attackers);
  // Every sync update is aggregated at the version it trained on.
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    sink->record_staleness(0);
  }
}

}  // namespace

void FederatedAlgorithm::cohort_round(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<std::shared_ptr<const ModelParameters>>& received,
    const ClientTrainConfig& cfg, FederationSim& sim, const Consume& consume) {
  if (cohort.size() != received.size()) {
    throw std::invalid_argument("cohort_round: " +
                                std::to_string(cohort.size()) +
                                " members vs " +
                                std::to_string(received.size()) +
                                " deployments");
  }
  validate_cohort("cohort_round", clients.size(), cohort);
  Channel& channel = sim.channel();
  // Byzantine behaviors fire between training and upload: a
  // compromised client trains honestly (its rng stream is unchanged)
  // and corrupts what it sends. Completed channel rounds disambiguate
  // repeated attacks by the same client (the noise-stream nonce).
  const std::uint64_t round_nonce = channel.stats().rounds.size();
  std::vector<AttackState*> attack_states = gather_attack_states(sim, cohort);
  // The decoded deployment is the uplink's shared delta reference
  // (both sides hold it).
  std::vector<const ModelParameters*> references;
  references.reserve(received.size());
  for (const auto& r : received) references.push_back(r.get());
  // Detection scores the cohort as a whole, so only with a detector
  // attached does the round keep the decoded uploads.
  const bool observe = sim.anomaly_detector() != nullptr;
  std::vector<ModelParameters> observed(observe ? cohort.size() : 0);
  // Each member trains inside its fold lane, so the lane count is also
  // the round's training parallelism; the raw update is freed once its
  // wire copy exists and the decoded one is handed to the consumer.
  channel.collect_streaming(
      cohort, references, fold_lane_offsets(cohort.size(), kFoldLanes),
      [&](std::size_t i) {
        const std::size_t k = cohort[i];
        ModelParameters update = clients[k].local_update(*received[i], cfg);
        const AttackSpec& attack = sim.engine().profile(k).attack;
        if (attack.kind != AttackKind::kNone) {
          update = apply_attack(attack, std::move(update), *received[i], k,
                                round_nonce, attack_states[i]);
        }
        return update;
      },
      [&](std::size_t lane, std::size_t i, ModelParameters&& decoded) {
        if (observe) observed[i] = decoded;
        consume(lane, i, std::move(decoded));
      });
  if (observe) sim.observe_cohort_updates(cohort, observed, references);
  record_cohort_telemetry(sim, cohort);
  // Barrier policy: the round's events run on the virtual clock and
  // the round closes at the slowest cohort member's upload.
  sim.finish_sync_round(cfg.steps, cohort);
}

}  // namespace fleda
