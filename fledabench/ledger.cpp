// The replay ledger: per-layer numbers from timed calls into each
// module's public functions, at the geometry the workloads run them.
// Kernel-level calls (layers, GEMMs, im2col, a training step, a client
// update, AUC) run inside one pool task, as a federated round runs one
// client, so their nested kernels are serial; round-level calls
// (dataset generation, cache writes, the channel, aggregation, the sim
// barrier) run from the coordinator thread, as the round loop calls
// them. The profiler is off throughout.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "comm/channel.hpp"
#include "comm/codec.hpp"
#include "data/generator.hpp"
#include "data/serialization.hpp"
#include "fl/aggregation.hpp"
#include "fl/client.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "metrics/roc_auc.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "obs/profiler.hpp"
#include "phys/features.hpp"
#include "sim/federation.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "util/config.hpp"
#include "workloads.hpp"

namespace fledabench {
namespace {

using fleda::ModelParameters;
using fleda::Shape;
using fleda::StopWatch;
using fleda::Tensor;

// One model at the geometry a workload trains it: input channels, grid
// (H = W) and minibatch.
struct Geometry {
  std::string model;  // metric prefix
  fleda::ModelKind kind;
  std::int64_t channels;
  std::int64_t grid;
  std::int64_t batch;
};

std::vector<Geometry> geometries() {
  const fleda::RunScale smoke = fleda::resolve_scale("smoke");
  return {
      {"flnet", fleda::ModelKind::kFLNet, fleda::kNumFeatureChannels,
       smoke.grid, smoke.batch_size},
      {"routenet", fleda::ModelKind::kRouteNet, fleda::kNumFeatureChannels,
       smoke.grid, smoke.batch_size},
      {"flnet_tiny", fleda::ModelKind::kFLNet, kFleetChannels, kFleetGrid,
       kFleetBatch},
  };
}

enum class LayerKind { kConv, kDeconv, kPool };

struct LayerStep {
  const char* name;
  LayerKind kind;
};

// The layers of each model in forward order. Everything else about a
// replayed layer (channels, kernel) is read off the model's parameters.
std::vector<LayerStep> layer_chain(fleda::ModelKind kind) {
  switch (kind) {
    case fleda::ModelKind::kFLNet:
      return {{"input_conv", LayerKind::kConv},
              {"output_conv", LayerKind::kConv}};
    case fleda::ModelKind::kRouteNet:
      return {{"conv1", LayerKind::kConv},   {"conv2", LayerKind::kConv},
              {"pool", LayerKind::kPool},    {"conv3", LayerKind::kConv},
              {"conv4", LayerKind::kConv},   {"deconv", LayerKind::kDeconv},
              {"output_conv", LayerKind::kConv}};
    default:
      throw std::invalid_argument("no layer chain for " + to_string(kind));
  }
}

// One replayed layer with the model's own weights, and the conv
// geometry its GEMMs and im2col run at (for a deconv, the geometry of
// its output image, which is what its im2col/col2im see).
struct ReplayLayer {
  std::string name;
  LayerKind kind = LayerKind::kConv;
  std::unique_ptr<fleda::Module> module;
  Shape in_shape;
  Shape out_shape;
  fleda::ConvGeometry geom;
  std::int64_t cin = 0;
  std::int64_t cout = 0;
};

Tensor random_tensor(const Shape& shape, fleda::Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

std::int64_t square_root(std::int64_t n) {
  auto r = static_cast<std::int64_t>(std::lround(std::sqrt(static_cast<double>(n))));
  return r * r == n ? r : -1;
}

// Builds `chain` as standalone layers from a freshly built model of
// geometry `g`: names, channels and kernels come from the model's
// parameters(), weights are copied from it, and shapes are propagated
// at g's grid and batch. Throws std::runtime_error naming the layer
// when the chain no longer matches the model: a missing or misshapen
// parameter, a model parameter no replayed layer covers, or a final
// output shape other than the model's.
std::vector<ReplayLayer> build_replay(const Geometry& g,
                                      const std::vector<LayerStep>& chain,
                                      fleda::Rng& rng) {
  fleda::RoutabilityModelPtr model = fleda::make_model(g.kind, g.channels, rng);
  std::map<std::string, fleda::Parameter*> params;
  for (fleda::Parameter* p : model->parameters()) params[p->name] = p;
  auto param = [&](const std::string& name) -> const Tensor& {
    auto it = params.find(name);
    if (it == params.end()) {
      throw std::runtime_error(g.model + ": model has no parameter " + name);
    }
    return it->second->value;
  };

  std::set<std::string> covered;
  std::vector<ReplayLayer> layers;
  Shape shape = Shape::of(g.batch, g.channels, g.grid, g.grid);
  for (const LayerStep& step : chain) {
    ReplayLayer layer;
    layer.name = step.name;
    layer.kind = step.kind;
    layer.in_shape = shape;
    layer.cin = shape.dim(1);
    const std::string where = g.model + "." + layer.name;
    if (step.kind == LayerKind::kPool) {
      layer.cout = layer.cin;
      layer.module = std::make_unique<fleda::MaxPool2d>(
          layer.name, fleda::MaxPool2dOptions{2, 2});
    } else {
      const Shape w = param(layer.name + ".weight").shape();
      const Shape b = param(layer.name + ".bias").shape();
      if (w.rank() != 2 || b.rank() != 1) {
        throw std::runtime_error(where + ": unexpected parameter ranks");
      }
      if (step.kind == LayerKind::kConv) {
        layer.cout = w.dim(0);
        const std::int64_t k = w.dim(1) % layer.cin == 0
                                   ? square_root(w.dim(1) / layer.cin)
                                   : -1;
        if (k <= 0) {
          throw std::runtime_error(where + ": weight " + w.to_string() +
                                   " does not fit " + std::to_string(layer.cin) +
                                   " input channels");
        }
        fleda::Conv2dOptions o;
        o.in_channels = layer.cin;
        o.out_channels = layer.cout;
        o.kernel = k;
        o.same_padding();
        layer.module = std::make_unique<fleda::Conv2d>(layer.name, o, rng);
        layer.geom = {layer.cin, shape.dim(2), shape.dim(3), k, k, o.padding,
                      o.padding, 1, 1, 1, 1};
      } else {
        layer.cout = b.dim(0);
        const std::int64_t k = w.dim(1) % layer.cout == 0
                                   ? square_root(w.dim(1) / layer.cout)
                                   : -1;
        if (w.dim(0) != layer.cin || k <= 0) {
          throw std::runtime_error(where + ": weight " + w.to_string() +
                                   " does not fit " + std::to_string(layer.cin) +
                                   " input channels");
        }
        fleda::ConvTranspose2dOptions o;
        o.in_channels = layer.cin;
        o.out_channels = layer.cout;
        o.kernel = k;
        o.stride = 2;
        o.padding = 1;
        layer.module = std::make_unique<fleda::ConvTranspose2d>(layer.name, o, rng);
        layer.geom = {layer.cout, o.out_size(shape.dim(2)), o.out_size(shape.dim(3)),
                      k, k, o.padding, o.padding, o.stride, o.stride, 1, 1};
      }
      for (fleda::Parameter* p : layer.module->parameters()) {
        const Tensor& source = param(p->name);
        if (!(source.shape() == p->value.shape())) {
          throw std::runtime_error(where + ": " + p->name + " is " +
                                   source.shape().to_string() +
                                   " in the model, " +
                                   p->value.shape().to_string() + " replayed");
        }
        p->value = source;
        covered.insert(p->name);
      }
    }
    layer.out_shape =
        layer.module->forward(random_tensor(shape, rng), /*training=*/true).shape();
    shape = layer.out_shape;
    layers.push_back(std::move(layer));
  }
  for (const auto& entry : params) {
    if (covered.count(entry.first) == 0) {
      throw std::runtime_error(g.model + ": parameter " + entry.first +
                               " belongs to no replayed layer");
    }
  }
  const Shape expected =
      model->forward(random_tensor(Shape::of(g.batch, g.channels, g.grid, g.grid), rng),
                     /*training=*/false)
          .shape();
  if (!(expected == shape)) {
    throw std::runtime_error(g.model + ": replayed chain ends at " +
                             shape.to_string() + ", the model at " +
                             expected.to_string());
  }
  return layers;
}

std::vector<float> random_floats(std::int64_t n, fleda::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// GFLOP/s of one GEMM call C[m,n] from `op` at the given shape.
double gemm_gflops(void (*op)(const float*, const float*, float*, std::int64_t,
                              std::int64_t, std::int64_t, bool),
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   fleda::Rng& rng) {
  const std::vector<float> a = random_floats(m * k, rng);
  const std::vector<float> b = random_floats(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const double ms = replay_ms([&] { op(a.data(), b.data(), c.data(), m, k, n, false); });
  return 2.0 * static_cast<double>(m * k * n) / (ms * 1e6);
}

// nn.*, tensor.gemm.*, tensor.im2col.* for one model geometry.
void layer_rows(const Geometry& g, const std::vector<ReplayLayer>& layers,
                fleda::Rng& rng, Report& report) {
  for (const ReplayLayer& layer : layers) {
    const std::string nn = "nn." + g.model + "." + layer.name;
    const Tensor x = random_tensor(layer.in_shape, rng);
    const Tensor gy = random_tensor(layer.out_shape, rng);
    fleda::Module& module = *layer.module;
    report.metric(nn + ".fwd_ms",
                  replay_ms([&] { module.forward(x, /*training=*/true); }), "ms");
    module.forward(x, /*training=*/true);
    report.metric(nn + ".bwd_ms", replay_ms([&] { module.backward(gy); }), "ms");
    if (layer.kind == LayerKind::kPool) continue;

    // The per-sample GEMMs of the layer's forward, dW and dX passes.
    const std::string gemm = "tensor.gemm." + g.model + "." + layer.name;
    const std::int64_t rows = layer.geom.col_rows();
    const std::int64_t cols = layer.geom.col_cols();
    if (layer.kind == LayerKind::kConv) {
      report.metric(gemm + ".fwd.gflops",
                    gemm_gflops(fleda::matmul, layer.cout, rows, cols, rng), "GFLOP/s");
      report.metric(gemm + ".dw.gflops",
                    gemm_gflops(fleda::matmul_bt, layer.cout, cols, rows, rng), "GFLOP/s");
      report.metric(gemm + ".dx.gflops",
                    gemm_gflops(fleda::matmul_at, rows, layer.cout, cols, rng), "GFLOP/s");
    } else {
      report.metric(gemm + ".fwd.gflops",
                    gemm_gflops(fleda::matmul_at, rows, layer.cin, cols, rng), "GFLOP/s");
      report.metric(gemm + ".dw.gflops",
                    gemm_gflops(fleda::matmul_bt, layer.cin, cols, rows, rng), "GFLOP/s");
      report.metric(gemm + ".dx.gflops",
                    gemm_gflops(fleda::matmul, layer.cin, rows, cols, rng), "GFLOP/s");
    }
    const std::vector<float> image = random_floats(
        layer.geom.channels * layer.geom.height * layer.geom.width, rng);
    std::vector<float> colbuf(static_cast<std::size_t>(rows * cols));
    report.metric("tensor.im2col." + g.model + "." + layer.name + ".ms",
                  replay_ms([&] { fleda::im2col(image.data(), layer.geom, colbuf.data()); }),
                  "ms");
  }
}

// models.<m>.step_ms (forward + MSE + backward + Adam) and, for the
// paper models, models.<m>.eval_ms (an evaluation forward at the batch
// of 8 Client::evaluate_test_auc uses).
void model_rows(const Geometry& g, fleda::Rng& rng, Report& report) {
  fleda::RoutabilityModelPtr model = fleda::make_model(g.kind, g.channels, rng);
  fleda::Adam adam(model->parameters(), fleda::AdamOptions{});
  const Tensor x = random_tensor(Shape::of(g.batch, g.channels, g.grid, g.grid), rng);
  Tensor y(Shape::of(g.batch, 1, g.grid, g.grid));
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = rng.bernoulli(0.1) ? 1.0f : 0.0f;
  report.metric("models." + g.model + ".step_ms", replay_ms([&] {
                  adam.zero_grad();
                  const fleda::LossResult loss =
                      fleda::mse_loss(model->forward(x, /*training=*/true), y);
                  model->backward(loss.grad);
                  adam.step();
                }),
                "ms");
  if (g.model == "flnet_tiny") return;
  const Tensor x8 = random_tensor(Shape::of(8, g.channels, g.grid, g.grid), rng);
  report.metric("models." + g.model + ".eval_ms",
                replay_ms([&] { model->forward(x8, /*training=*/false); }), "ms");
}

// fl.client.<m>.local_update_ms and, for the paper models,
// fl.client.<m>.eval_auc_ms, on client 1's data at the geometry.
void client_rows(const Geometry& g, const fleda::ClientDataset& data,
                 const fleda::ClientTrainConfig& cfg, fleda::Rng& rng,
                 Report& report) {
  const fleda::ModelFactory factory = fleda::make_model_factory(g.kind, g.channels);
  fleda::Client client(1, &data, std::make_shared<fleda::ModelPool>(factory),
                       rng.fork(1));
  const ModelParameters start = fleda::initial_model_parameters(factory, rng);
  const std::string prefix = "fl.client." + g.model;
  report.metric(prefix + ".local_update_ms",
                replay_ms([&] { client.local_update(start, cfg); }), "ms");
  if (g.model == "flnet_tiny") return;
  report.metric(prefix + ".eval_auc_ms",
                replay_ms([&] { client.evaluate_test_auc(start); }), "ms");
}

// `n` copies of `base`, each perturbed by N(0, 0.01^2) per coordinate.
std::vector<ModelParameters> noisy_updates(const ModelParameters& base,
                                           std::size_t n, fleda::Rng& rng) {
  std::vector<ModelParameters> updates(n, base);
  for (ModelParameters& u : updates) {
    for (fleda::ParameterEntry& e : u.mutable_entries()) {
      for (std::int64_t i = 0; i < e.value.numel(); ++i) {
        e.value[i] += static_cast<float>(rng.normal(0.0, 0.01));
      }
    }
  }
  return updates;
}

double aggregate_ms(const std::string& rule_name, const ModelParameters& global,
                    const std::vector<ModelParameters>& updates) {
  fleda::AggregationConfig config;
  config.rule = rule_name;
  const std::unique_ptr<fleda::AggregationRule> rule =
      fleda::make_aggregation_rule(config);
  std::vector<fleda::AggregationInput> cohort;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    cohort.push_back({&updates[i], 6.0, 0, static_cast<int>(i)});
  }
  return coordinator_ms([&] { rule->aggregate(global, cohort); });
}

// comm.* and sim.*: codec throughput on the fleet's model, then rounds
// of the fleet's exchange (a cohort of kFleetCohort out of
// kFleetClients, int8 up, fp32 down, heterogeneous links) through a
// Channel and the sim barrier, with pre-made updates.
void exchange_rows(const ModelParameters& global, std::uint64_t seed,
                   fleda::Rng& rng, Report& report) {
  const double model_mb = static_cast<double>(fleda::raw_wire_bytes(global)) / 1e6;
  for (const fleda::CodecKind kind :
       {fleda::CodecKind::kInt8Quant, fleda::CodecKind::kFp32}) {
    const std::unique_ptr<fleda::ParameterCodec> codec = fleda::make_codec(kind);
    const std::string prefix = "comm." + codec->name();
    const fleda::ByteBuffer blob = codec->encode(global, nullptr);
    report.metric(prefix + ".encode_mbps",
                  model_mb * 1e3 / replay_ms([&] { codec->encode(global, nullptr); }),
                  "MB/s");
    report.metric(prefix + ".decode_mbps",
                  model_mb * 1e3 / replay_ms([&] { codec->decode(blob, nullptr); }),
                  "MB/s");
  }

  fleda::CommConfig comm;
  comm.uplink = fleda::CodecKind::kInt8Quant;
  comm.downlink = fleda::CodecKind::kFp32;
  const fleda::SimConfig sim_config =
      fleda::SimConfig::heterogeneous(kFleetClients, derive_seed(seed, kTagSim));
  fleda::Channel channel(comm);
  channel.set_links(fleda::links_from_profiles(sim_config, kFleetClients));
  fleda::SimEngine engine(sim_config, comm, kFleetClients);
  fleda::FederationSim sim(channel, engine);
  fleda::UniformSample sampler(kFleetCohort, derive_seed(seed, kTagParticipation));
  const std::vector<ModelParameters> updates =
      noisy_updates(global, kFleetCohort, rng);
  const std::vector<const ModelParameters*> deployed(kFleetCohort, &global);

  std::vector<double> broadcast_ms;
  std::vector<double> collect_ms;
  std::vector<double> events;
  double barrier_s = 0.0;
  double barrier_events = 0.0;
  constexpr int kRounds = 8;
  for (int r = 0; r < kRounds; ++r) {
    fleda::ParticipationContext ctx;
    ctx.round = r;
    ctx.num_clients = kFleetClients;
    ctx.now = sim.now();
    ctx.sim = &sim_config;
    const std::vector<std::size_t> cohort = sampler.select(ctx);
    StopWatch sw;
    channel.broadcast(deployed, cohort);
    broadcast_ms.push_back(sw.millis());
    sw.reset();
    channel.collect(updates, deployed, cohort);
    collect_ms.push_back(sw.millis());
    const std::uint64_t before = engine.events_processed();
    sw.reset();
    sim.finish_sync_round(kFleetSteps, cohort);
    barrier_s += sw.seconds();
    events.push_back(static_cast<double>(engine.events_processed() - before));
    barrier_events += events.back();
  }
  report.metric("comm.channel.broadcast_ms", median(broadcast_ms), "ms");
  report.metric("comm.channel.collect_ms", median(collect_ms), "ms");
  const fleda::RoundCommStats& round = channel.stats().rounds.front();
  report.metric("comm.uplink_bytes_per_round",
                static_cast<double>(round.uplink_bytes), "bytes");
  report.metric("comm.downlink_bytes_per_round",
                static_cast<double>(round.downlink_bytes), "bytes");
  report.metric("sim.events_per_round", median(events), "count");
  report.metric("sim.dispatch_per_s", barrier_events / barrier_s, "1/s");
}

}  // namespace

void run_ledger(const RunArgs& args, Report& report) {
  fleda::Rng rng(derive_seed(args.seed, kTagReplay));
  const fleda::RunScale smoke = fleda::resolve_scale("smoke");

  // data: the paper dataset's generation and cache write at smoke scale.
  fleda::DatasetGenOptions gen;
  gen.grid = smoke.grid;
  gen.placement_fraction = smoke.placement_fraction;
  gen.seed = derive_seed(args.seed, kTagData);
  std::vector<double> generate_s;
  std::vector<fleda::ClientDataset> paper_data;
  for (int i = 0; i < 3; ++i) {
    StopWatch sw;
    paper_data = fleda::generate_paper_dataset(gen);
    generate_s.push_back(sw.seconds());
  }
  report.metric("data.generate_s", median(generate_s), "s");
  std::vector<double> save_s;
  for (int i = 0; i < 3; ++i) {
    const std::string dir = args.work_dir + "/ledger-cache";
    std::filesystem::remove_all(dir);
    StopWatch sw;
    fleda::save_all_clients(dir, paper_data);
    save_s.push_back(sw.seconds());
    std::filesystem::remove_all(dir);
  }
  report.metric("data.cache_save_s", median(save_s), "s");

  // nn, tensor, models, fl.client: every model at its workload geometry.
  const fleda::ClientDataset tiny_data = fleda::make_synthetic_client(
      1, 0.35f, derive_seed(args.seed, kTagData));
  std::string ranking = "{";
  for (const Geometry& g : geometries()) {
    std::vector<ReplayLayer> layers;
    std::string violation;
    try {
      layers = build_replay(g, layer_chain(g.kind), rng);
    } catch (const std::exception& e) {
      violation = e.what();
    }
    report.operation(violation.empty(), violation);
    if (!violation.empty()) continue;
    layer_rows(g, layers, rng, report);
    model_rows(g, rng, report);

    const bool tiny = g.model == "flnet_tiny";
    fleda::ClientTrainConfig cfg = fleet_client_config();
    if (!tiny) {
      cfg = fleda::ClientTrainConfig{};
      cfg.steps = smoke.steps_per_round;
      cfg.batch_size = smoke.batch_size;
    }
    client_rows(g, tiny ? tiny_data : paper_data.front(), cfg, rng, report);
  }

  // fl.client.construct_us: replay-init construction of fleet clients.
  {
    const fleda::ModelFactory factory =
        fleda::make_model_factory(fleda::ModelKind::kFLNet, kFleetChannels);
    auto pool = std::make_shared<fleda::ModelPool>(factory);
    constexpr int kBatch = 500;
    const double ms = coordinator_ms([&] {
      std::vector<fleda::Client> clients;
      clients.reserve(kBatch);
      fleda::Rng client_rng(derive_seed(args.seed, kTagClients));
      for (int k = 0; k < kBatch; ++k) {
        clients.emplace_back(k + 1, &tiny_data, pool, client_rng.fork(k));
      }
    });
    report.metric("fl.client.construct_us", ms * 1e3 / kBatch, "us");
  }

  // fl.agg: the fleet's dense trimmed mean over a cohort of tiny
  // updates, and the paper's weighted average over nine FLNet updates.
  const ModelParameters tiny_global = fleda::initial_model_parameters(
      fleda::make_model_factory(fleda::ModelKind::kFLNet, kFleetChannels), rng);
  report.metric("fl.agg.trimmed_mean_ms",
                aggregate_ms("trimmed_mean", tiny_global,
                             noisy_updates(tiny_global, kFleetCohort, rng)),
                "ms");
  const ModelParameters flnet_global = fleda::initial_model_parameters(
      fleda::make_model_factory(fleda::ModelKind::kFLNet, fleda::kNumFeatureChannels),
      rng);
  report.metric("fl.agg.weighted_average_ms",
                aggregate_ms("weighted_average", flnet_global,
                             noisy_updates(flnet_global, 9, rng)),
                "ms");

  exchange_rows(tiny_global, args.seed, rng, report);

  // metrics: ROC AUC over every test pixel of client 1 at smoke scale.
  const std::size_t pixels =
      paper_data.front().test.size() * static_cast<std::size_t>(smoke.grid * smoke.grid);
  std::vector<float> scores(pixels);
  std::vector<float> labels(pixels);
  for (std::size_t i = 0; i < pixels; ++i) {
    scores[i] = static_cast<float>(rng.uniform());
    labels[i] = rng.bernoulli(0.1) ? 1.0f : 0.0f;
  }
  report.metric("metrics.roc_auc_ms",
                replay_ms([&] { fleda::roc_auc(scores, labels); }), "ms");
}

bool ledger_self_test() {
  fleda::Rng rng(1);
  bool ok = true;
  auto expect = [&](bool good, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", good ? "ok  " : "FAIL", what.c_str());
    ok = ok && good;
  };
  auto builds = [&](const Geometry& g, const std::vector<LayerStep>& chain,
                    std::string* why) {
    try {
      build_replay(g, chain, rng);
      return true;
    } catch (const std::exception& e) {
      *why = e.what();
      return false;
    }
  };
  for (const Geometry& g : geometries()) {
    std::string why;
    const bool built = builds(g, layer_chain(g.kind), &why);
    expect(built, "replayed layers of " + g.model + " match the model" +
                      (built ? "" : ": " + why));
  }
  // Drift must be caught: a chain missing a layer, a layer of another
  // model, and a layer of the wrong kind.
  const Geometry flnet = geometries().front();
  const std::vector<std::pair<std::string, std::vector<LayerStep>>> drifted = {
      {"a chain missing output_conv", {{"input_conv", LayerKind::kConv}}},
      {"RouteNet's chain on FLNet", layer_chain(fleda::ModelKind::kRouteNet)},
      {"a conv replayed as a deconv",
       {{"input_conv", LayerKind::kConv}, {"output_conv", LayerKind::kDeconv}}},
  };
  for (const auto& [what, chain] : drifted) {
    std::string why;
    const bool built = builds(flnet, chain, &why);
    expect(!built, what + " is rejected (" + why + ")");
  }
  return ok;
}

}  // namespace fledabench
