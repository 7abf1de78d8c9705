// Ablation bench for the paper's §4.2 model co-design argument: why a
// 2-layer, no-BatchNorm, large-kernel model. Compares FedProx accuracy
// (the decentralized setting) across FLNet variants:
//   - kernel size 3 / 5 / 9 (receptive field matters for routability)
//   - FLNet vs FLNet + BatchNorm (aggregated BN statistics destabilize)
// Reported next to the central-training accuracy of the same variant
// so the decentralization *gap* is visible per variant.
#include "bench_common.hpp"
#include "fl/baselines.hpp"
#include "fl/registry.hpp"
#include "models/flnet.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "phys/features.hpp"

namespace fleda {
namespace {

// FLNet with a BatchNorm inserted between the two convolutions — the
// "what if FLNet had BN" ablation.
class FLNetBN : public RoutabilityModel {
 public:
  FLNetBN(std::int64_t in_channels, std::int64_t kernel, Rng& rng)
      : in_channels_(in_channels), net_("flnet_bn") {
    Conv2dOptions c1;
    c1.in_channels = in_channels;
    c1.out_channels = 64;
    c1.kernel = kernel;
    c1.same_padding();
    c1.bias = false;  // BN follows
    net_.emplace<Conv2d>("input_conv", c1, rng);
    net_.emplace<BatchNorm2d>("bn", BatchNorm2dOptions{64});
    net_.emplace<ReLU>("relu");
    Conv2dOptions c2;
    c2.in_channels = 64;
    c2.out_channels = 1;
    c2.kernel = kernel;
    c2.same_padding();
    net_.emplace<Conv2d>("output_conv", c2, rng);
  }
  Tensor forward(const Tensor& x, bool training) override {
    return net_.forward(x, training);
  }
  Tensor backward(const Tensor& g) override { return net_.backward(g); }
  std::vector<Parameter*> parameters() override { return net_.parameters(); }
  std::vector<NamedBuffer> buffers() override { return net_.buffers(); }
  std::string describe() const override { return "FLNet+BN"; }
  std::string model_name() const override { return "flnet_bn"; }
  std::int64_t in_channels() const override { return in_channels_; }

 private:
  std::int64_t in_channels_;
  Sequential net_;
};

// Each variant has its own architecture, so each gets its own pool;
// within the variant all clients share its scratch models.
std::vector<Client> make_clients(const ModelFactory& factory,
                                 const std::vector<ClientDataset>& data) {
  auto pool = std::make_shared<ModelPool>(factory);
  Rng rng(7);
  std::vector<Client> clients;
  clients.reserve(data.size());
  for (const ClientDataset& ds : data) {
    clients.emplace_back(ds.client_id, &ds, pool,
                         rng.fork(static_cast<std::uint64_t>(ds.client_id)));
  }
  return clients;
}

ClientTrainConfig make_train_config(const ExperimentConfig& cfg) {
  PaperHyperParams hp;
  ClientTrainConfig ccfg;
  ccfg.steps = cfg.scale.steps_per_round;
  ccfg.batch_size = cfg.scale.batch_size;
  ccfg.learning_rate = hp.learning_rate;
  ccfg.l2_regularization = hp.l2_regularization;
  ccfg.mu = hp.fedprox_mu;
  ccfg.reset_optimizer = cfg.reset_optimizer;
  return ccfg;
}

// Trains one variant federated with the AlgorithmRegistry method `name`.
MethodResult run_variant(const std::string& label, const ModelFactory& factory,
                         const std::vector<ClientDataset>& data,
                         const ExperimentConfig& cfg, const std::string& name) {
  std::vector<Client> clients = make_clients(factory, data);
  std::unique_ptr<FederatedAlgorithm> algo =
      AlgorithmRegistry::global().create(name);
  FLRunOptions opts;
  opts.rounds = cfg.scale.rounds;
  opts.client = make_train_config(cfg);
  opts.aggregation = cfg.aggregation;
  std::vector<ModelParameters> finals = algo->run(clients, factory, opts);
  return evaluate_per_client(label, clients, finals);
}

// Trains one variant centrally on the pooled data.
MethodResult run_central(const std::string& label, const ModelFactory& factory,
                         const std::vector<ClientDataset>& data,
                         const ExperimentConfig& cfg) {
  BaselineOptions bopts;
  bopts.total_steps = cfg.scale.rounds * cfg.scale.steps_per_round;
  bopts.client = make_train_config(cfg);
  ModelParameters central = train_centralized(data, factory, bopts);
  std::vector<Client> clients = make_clients(factory, data);
  return evaluate_shared(label, clients, central);
}

}  // namespace
}  // namespace fleda

int main() {
  using namespace fleda;
  ExperimentConfig cfg = bench::make_config(ModelKind::kFLNet);
  std::printf("== Ablation: FLNet co-design choices under FedProx ==\n");
  Timer total;
  Experiment exp(cfg);
  exp.prepare_data();
  const auto& data = exp.data();

  AsciiTable t("FLNet variants: FedProx vs central (avg ROC AUC)");
  t.set_header({"Variant", "FedProx", "Central", "Degradation"});

  auto add_row = [&](const std::string& label, const ModelFactory& factory) {
    MethodResult fed = run_variant(label, factory, data, cfg, "fedprox");
    MethodResult central = run_central(label, factory, data, cfg);
    t.add_row({label, AsciiTable::fmt(fed.average, 3),
               AsciiTable::fmt(central.average, 3),
               AsciiTable::fmt(central.average - fed.average, 3)});
  };

  for (std::int64_t kernel : {3, 5, 9}) {
    FLNetOptions o;
    o.in_channels = kNumFeatureChannels;
    o.kernel = kernel;
    add_row("FLNet k=" + std::to_string(kernel), [o](Rng& rng) {
      return std::make_unique<FLNet>(o, rng);
    });
  }
  add_row("FLNet k=9 + BatchNorm", [](Rng& rng) -> RoutabilityModelPtr {
    return std::make_unique<FLNetBN>(kNumFeatureChannels, 9, rng);
  });

  t.print();
  std::printf("total time %.1fs\n\n", total.seconds());
  return 0;
}
