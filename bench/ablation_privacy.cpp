// Extension ablation: differential-privacy Gaussian mechanism on top
// of FedProx (the privacy layer the paper cites as [19]/[21] but
// scopes out). Each client's update delta is clipped to a fixed L2
// norm and noised before aggregation; the sweep shows the
// privacy/utility trade-off on routability AUC with FLNet.
#include "bench_common.hpp"
#include "fl/fedprox.hpp"
#include "fl/privacy.hpp"
#include "phys/features.hpp"

namespace fleda {
namespace {

// FedProx with the DP mechanism applied to every client update.
class DpFedProx : public FederatedAlgorithm {
 public:
  explicit DpFedProx(const DpOptions& dp) : dp_(dp) {}
  std::string name() const override { return "DP-FedProx"; }

 protected:
  std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) override {
    Rng init_rng(opts.seed);
    RoutabilityModelPtr init = factory(init_rng);
    ModelParameters global = ModelParameters::from_model(*init);
    Rng noise_rng(opts.seed ^ 0xD9E5ull);

    const std::vector<double> weights = client_weights(clients);
    const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
    for (int r = 0; r < opts.rounds; ++r) {
      const std::vector<std::size_t> cohort =
          select_cohort(participation, r, clients.size(), opts, sim);
      // One noise stream per cohort position, forked on this thread:
      // the uploads are privatized on lane threads.
      std::vector<Rng> noise;
      for (std::size_t i = 0; i < cohort.size(); ++i) {
        noise.push_back(noise_rng.fork(i));
      }
      const std::vector<const ModelParameters*> deployed(cohort.size(),
                                                         &global);
      LaneAccumulators next(*rule, global);
      cohort_round(clients, cohort, sim.channel().broadcast(deployed, cohort),
                   opts.client, sim,
                   [&](std::size_t lane, std::size_t i, ModelParameters&& u) {
                     privatize_update(u, global, dp_, noise[i]);
                     next[lane].fold(std::move(u), weights[cohort[i]], 0,
                                     static_cast<int>(cohort[i]));
                   });
      global = next.finish();
    }
    return std::vector<ModelParameters>(clients.size(), global);
  }

 private:
  DpOptions dp_;
};

}  // namespace
}  // namespace fleda

int main() {
  using namespace fleda;
  ExperimentConfig cfg = bench::make_config(ModelKind::kFLNet);
  std::printf("== Ablation (extension): DP Gaussian mechanism on FedProx ==\n");
  Timer total;
  Experiment exp(cfg);
  exp.prepare_data();
  ModelFactory factory =
      make_model_factory(ModelKind::kFLNet, kNumFeatureChannels);
  // Shared scratch models across all noise settings.
  auto pool = std::make_shared<ModelPool>(factory);

  FLRunOptions opts;
  opts.rounds = cfg.scale.rounds;
  opts.aggregation = cfg.aggregation;
  PaperHyperParams hp;
  opts.client.steps = cfg.scale.steps_per_round;
  opts.client.batch_size = cfg.scale.batch_size;
  opts.client.reset_optimizer = cfg.reset_optimizer;
  opts.client.learning_rate = hp.learning_rate;
  opts.client.l2_regularization = hp.l2_regularization;
  opts.client.mu = hp.fedprox_mu;

  AsciiTable t("DP-FedProx with FLNet (clip = 1.0)");
  t.set_header({"Noise multiplier", "Avg ROC AUC"});
  for (double noise : {0.0, 1e-4, 1e-3, 1e-2}) {
    Rng rng(7);
    std::vector<Client> clients;
    clients.reserve(exp.data().size());
    for (const ClientDataset& ds : exp.data()) {
      clients.emplace_back(ds.client_id, &ds, pool,
                           rng.fork(static_cast<std::uint64_t>(ds.client_id)));
    }
    DpOptions dp;
    dp.clip_norm = 1.0;
    dp.noise_multiplier = noise;
    DpFedProx algo(dp);
    std::vector<ModelParameters> finals = algo.run(clients, factory, opts);
    MethodResult r = evaluate_per_client("dp", clients, finals);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", noise);
    t.add_row({buf, AsciiTable::fmt(r.average, 3)});
  }
  t.print();
  std::printf("total time %.1fs\n\n", total.seconds());
  return 0;
}
