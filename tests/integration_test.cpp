// End-to-end integration tests through the public fleda::Experiment
// API at smoke scale: dataset generation -> FL training -> evaluation
// for every paper method, table rendering, convergence tracking, and
// dataset caching.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/experiment.hpp"
#include "core/paper_tables.hpp"

namespace fleda {
namespace {

ExperimentConfig smoke_config(ModelKind model = ModelKind::kFLNet) {
  ExperimentConfig cfg;
  cfg.model = model;
  cfg.scale = resolve_scale("smoke");
  // Keep the integration tests fast: 2 rounds x 3 steps.
  cfg.scale.rounds = 2;
  cfg.scale.steps_per_round = 3;
  cfg.scale.finetune_steps = 4;
  cfg.data_seed = 777;
  return cfg;
}

TEST(ExperimentIntegration, PreparesNineClientTable2Dataset) {
  Experiment exp(smoke_config());
  exp.prepare_data();
  ASSERT_EQ(exp.data().size(), 9u);
  for (std::size_t k = 0; k < 9; ++k) {
    EXPECT_EQ(exp.data()[k].client_id, static_cast<int>(k) + 1);
    EXPECT_GT(exp.data()[k].num_train(), 0);
    EXPECT_GT(exp.data()[k].num_test(), 0);
  }
  // Suite assignment per Table 2.
  EXPECT_EQ(exp.data()[0].suite, BenchmarkSuite::kItc99);
  EXPECT_EQ(exp.data()[3].suite, BenchmarkSuite::kIscas89);
  EXPECT_EQ(exp.data()[6].suite, BenchmarkSuite::kIwls05);
  EXPECT_EQ(exp.data()[8].suite, BenchmarkSuite::kIspd15);
}

TEST(ExperimentIntegration, RunMethodRequiresData) {
  Experiment exp(smoke_config());
  EXPECT_THROW(exp.run_method("fedprox"), std::logic_error);
}

class AllMethods : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMethods, ProducesValidRow) {
  Experiment exp(smoke_config());
  exp.prepare_data();
  MethodResult row = exp.run_method(GetParam());
  EXPECT_EQ(row.method, display_name(GetParam()));
  ASSERT_EQ(row.client_auc.size(), 9u);
  for (double auc : row.client_auc) {
    EXPECT_GE(auc, 0.0);
    EXPECT_LE(auc, 1.0);
  }
  EXPECT_GT(row.average, 0.3);  // better than anti-learning
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethods,
    ::testing::Values("local", "central", "fedavg", "fedprox", "fedprox_lg",
                      "ifca", "fedprox_finetune", "assigned_clustering",
                      "alpha_sync"),
    [](const auto& info) { return info.param; });

TEST(ExperimentIntegration, RunMethodByNameAndUnknownNameThrows) {
  ExperimentConfig cfg = smoke_config();
  cfg.scale.rounds = 1;
  cfg.scale.steps_per_round = 2;
  // Exercise the fluent name-keyed API together with client sampling:
  // 4 of the 9 clients participate per round.
  cfg.participation.kind = ParticipationKind::kUniformSample;
  cfg.participation.sample_size = 4;
  Experiment exp(cfg);
  exp.prepare_data();
  MethodResult row = exp.run_method("fedavg");
  EXPECT_EQ(row.method, "FedAvg");
  EXPECT_EQ(row.participation, "uniform_sample");
  ASSERT_EQ(row.client_auc.size(), 9u);
  // Sampled round: 4 deployments down, 4 updates up.
  EXPECT_EQ(row.comm.downlink_messages, 4u);
  EXPECT_EQ(row.comm.uplink_messages, 4u);
  try {
    exp.run_method("no_such_method");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("registered"), std::string::npos);
  }
}

TEST(ExperimentIntegration, PaperMethodListMatchesTableRows) {
  const std::vector<std::string> expected = {
      "local", "central", "fedprox", "fedprox_lg", "ifca", "fedprox_finetune",
      "assigned_clustering", "alpha_sync"};
  EXPECT_EQ(paper_table_methods(), expected);
  // Every federated row (all but the two baselines) is a registered
  // algorithm.
  for (const std::string& name : paper_table_methods()) {
    if (name == "local" || name == "central") continue;
    EXPECT_TRUE(AlgorithmRegistry::global().contains(name)) << name;
  }
  EXPECT_TRUE(AlgorithmRegistry::global().contains("fedavg"));
  EXPECT_TRUE(AlgorithmRegistry::global().contains("async_fedavg"));
  // The table labels the benches print.
  EXPECT_EQ(display_name("local"), "Local Average (b1 to b9)");
  EXPECT_EQ(display_name("central"), "Training Centrally on All Data");
  EXPECT_EQ(display_name("fedprox"), "FedProx");
  EXPECT_EQ(display_name("fedprox_finetune"), "FedProx + Fine-tuning");
  EXPECT_EQ(display_name("alpha_sync"), "FedProx + a-Portion Sync");
  // Unregistered names display as themselves.
  EXPECT_EQ(display_name("dp_fedprox"), "dp_fedprox");
}

TEST(ExperimentIntegration, ConvergenceSeriesHasOnePointPerRound) {
  Experiment exp(smoke_config());
  exp.prepare_data();
  auto series = exp.run_convergence("fedprox");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].round, 0);
  EXPECT_EQ(series[1].round, 1);
  for (const auto& pt : series) {
    EXPECT_GE(pt.average_auc, 0.0);
    EXPECT_LE(pt.average_auc, 1.0);
  }
  EXPECT_THROW(exp.run_convergence("local"), std::invalid_argument);
}

TEST(ExperimentIntegration, DatasetCacheRoundTrips) {
  ExperimentConfig cfg = smoke_config();
  cfg.cache_dir =
      (std::filesystem::temp_directory_path() / "fleda_cache_test").string();
  std::filesystem::remove_all(cfg.cache_dir);

  Experiment first(cfg);
  first.prepare_data();
  Experiment second(cfg);
  second.prepare_data();  // must load from cache
  ASSERT_EQ(second.data().size(), 9u);
  EXPECT_EQ(second.data()[0].num_train(), first.data()[0].num_train());
  EXPECT_TRUE(second.data()[0].train[0].features.equals(
      first.data()[0].train[0].features));
  std::filesystem::remove_all(cfg.cache_dir);
}

TEST(PaperTables, Table2RendersAllClients) {
  Experiment exp(smoke_config());
  exp.prepare_data();
  AsciiTable t = render_table2(paper_client_specs(), exp.data());
  EXPECT_EQ(t.num_rows(), 9u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ITC'99"), std::string::npos);
  EXPECT_NE(s.find("ISPD'15"), std::string::npos);
  EXPECT_NE(s.find("812"), std::string::npos);  // paper placement count
}

TEST(PaperTables, AccuracyTableLayoutMatchesPaper) {
  MethodResult r1{"Local Average (b1 to b9)",
                  {0.76, 0.75, 0.71, 0.72, 0.67, 0.70, 0.76, 0.64, 0.82},
                  0.72};
  MethodResult r2{"FedProx",
                  {0.82, 0.78, 0.73, 0.75, 0.72, 0.74, 0.82, 0.69, 0.96},
                  0.78};
  AsciiTable t = render_accuracy_table("Table 3", {r1, r2});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Client 9"), std::string::npos);
  EXPECT_NE(s.find("Average"), std::string::npos);
  EXPECT_NE(s.find("0.78"), std::string::npos);
  EXPECT_THROW(render_accuracy_table("empty", {}), std::invalid_argument);
}

TEST(PaperTables, HeadlineSummaryComputesDeltas) {
  MethodResult local{"Local Average (b1 to b9)", {0.72}, 0.72};
  MethodResult central{"Training Centrally on All Data", {0.81}, 0.81};
  MethodResult fedprox{"FedProx", {0.78}, 0.78};
  MethodResult ft{"FedProx + Fine-tuning", {0.80}, 0.80};
  AsciiTable t = render_headline_summary({local, central, fedprox, ft});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("+0.06"), std::string::npos);   // paper claim column
  EXPECT_NE(s.find("0.060"), std::string::npos);   // measured delta
  EXPECT_NE(s.find("11"), std::string::npos);      // relative percent
}

}  // namespace
}  // namespace fleda
