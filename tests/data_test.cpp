// Tests for client datasets: Table 2 spec conformance, batching,
// epoch sampling, the generator's privacy-relevant invariants (no
// design overlap between train/test or between clients), and dataset
// serialization round-trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "data/generator.hpp"
#include "data/serialization.hpp"
#include "phys/features.hpp"
#include "tensor/ops.hpp"

namespace fleda {
namespace {

DatasetGenOptions tiny_options() {
  DatasetGenOptions opts;
  opts.grid = 16;
  opts.placement_fraction = 0.01;  // minimum: one placement per design
  opts.seed = 4242;
  return opts;
}

TEST(Table2Spec, MatchesPaperExactly) {
  std::vector<ClientSpec> specs = paper_client_specs();
  ASSERT_EQ(specs.size(), 9u);

  // Suite assignment: 3x ITC'99, 3x ISCAS'89, 2x IWLS'05, 1x ISPD'15.
  EXPECT_EQ(specs[0].suite, BenchmarkSuite::kItc99);
  EXPECT_EQ(specs[1].suite, BenchmarkSuite::kItc99);
  EXPECT_EQ(specs[2].suite, BenchmarkSuite::kItc99);
  EXPECT_EQ(specs[3].suite, BenchmarkSuite::kIscas89);
  EXPECT_EQ(specs[4].suite, BenchmarkSuite::kIscas89);
  EXPECT_EQ(specs[5].suite, BenchmarkSuite::kIscas89);
  EXPECT_EQ(specs[6].suite, BenchmarkSuite::kIwls05);
  EXPECT_EQ(specs[7].suite, BenchmarkSuite::kIwls05);
  EXPECT_EQ(specs[8].suite, BenchmarkSuite::kIspd15);

  // Totals from the paper: 74 designs, 7131 placements.
  int designs = 0, placements = 0;
  for (const ClientSpec& s : specs) {
    designs += s.train_designs + s.test_designs;
    placements += s.train_placements + s.test_placements;
  }
  EXPECT_EQ(designs, 74);
  EXPECT_EQ(placements, 7131);

  // Spot-check the paper's row values.
  EXPECT_EQ(specs[0].train_placements, 462);
  EXPECT_EQ(specs[0].test_placements, 230);
  EXPECT_EQ(specs[3].train_placements, 812);
  EXPECT_EQ(specs[8].train_designs, 9);
  EXPECT_EQ(specs[8].test_placements, 84);
}

TEST(MakeBatch, StacksSelectedSamples) {
  std::vector<Sample> samples(3);
  for (int i = 0; i < 3; ++i) {
    samples[static_cast<std::size_t>(i)].features =
        Tensor::full(Shape{2, 4, 4}, static_cast<float>(i));
    samples[static_cast<std::size_t>(i)].label =
        Tensor::full(Shape{1, 4, 4}, static_cast<float>(10 + i));
  }
  Batch b = make_batch(samples, {2, 0});
  EXPECT_EQ(b.x.shape(), (Shape{2, 2, 4, 4}));
  EXPECT_EQ(b.y.shape(), (Shape{2, 1, 4, 4}));
  EXPECT_FLOAT_EQ(b.x[0], 2.0f);
  EXPECT_FLOAT_EQ(b.x[32], 0.0f);
  EXPECT_FLOAT_EQ(b.y[0], 12.0f);
  EXPECT_EQ(b.size(), 2);
}

TEST(MakeBatch, RejectsEmptyAndInhomogeneous) {
  std::vector<Sample> samples(2);
  samples[0].features = Tensor(Shape{2, 4, 4});
  samples[0].label = Tensor(Shape{1, 4, 4});
  samples[1].features = Tensor(Shape{2, 8, 8});
  samples[1].label = Tensor(Shape{1, 8, 8});
  EXPECT_THROW(make_batch(samples, {}), std::invalid_argument);
  EXPECT_THROW(make_batch(samples, {0, 1}), std::invalid_argument);
}

TEST(BatchSampler, CoversEpochWithoutRepeats) {
  BatchSampler sampler(10, 3, Rng(1));
  std::multiset<std::size_t> seen;
  // 4 batches: 3+3+3+1 completes the epoch exactly once.
  std::size_t drawn = 0;
  while (drawn < 10) {
    for (std::size_t i : sampler.next()) {
      seen.insert(i);
      ++drawn;
    }
  }
  EXPECT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(BatchSampler, DoesNotMixEpochsInOneBatch) {
  BatchSampler sampler(5, 4, Rng(2));
  std::vector<std::size_t> b1 = sampler.next();  // 4 of epoch 1
  std::vector<std::size_t> b2 = sampler.next();  // remaining 1
  EXPECT_EQ(b1.size(), 4u);
  EXPECT_EQ(b2.size(), 1u);
}

TEST(BatchSampler, RejectsZeroBatch) {
  EXPECT_THROW(BatchSampler(4, 0, Rng(3)), std::invalid_argument);
}

TEST(Generator, ProducesRequestedStructure) {
  ClientSpec spec = paper_client_specs()[1];  // client 2: small ITC'99
  ClientDataset ds = generate_client_dataset(spec, tiny_options());
  EXPECT_EQ(ds.client_id, 2);
  EXPECT_EQ(ds.suite, BenchmarkSuite::kItc99);
  EXPECT_EQ(static_cast<int>(ds.train_designs.size()), spec.train_designs);
  EXPECT_EQ(static_cast<int>(ds.test_designs.size()), spec.test_designs);
  // At least one placement per design even at tiny fraction.
  EXPECT_GE(ds.num_train(), spec.train_designs);
  EXPECT_GE(ds.num_test(), spec.test_designs);
  for (const Sample& s : ds.train) {
    EXPECT_EQ(s.features.shape(), (Shape{kNumFeatureChannels, 16, 16}));
    EXPECT_EQ(s.label.shape(), (Shape{1, 16, 16}));
  }
}

TEST(Generator, DeterministicForSameSeed) {
  ClientSpec spec = paper_client_specs()[2];
  ClientDataset a = generate_client_dataset(spec, tiny_options());
  ClientDataset b = generate_client_dataset(spec, tiny_options());
  ASSERT_EQ(a.num_train(), b.num_train());
  for (std::int64_t i = 0; i < a.num_train(); ++i) {
    EXPECT_TRUE(a.train[static_cast<std::size_t>(i)].features.equals(
        b.train[static_cast<std::size_t>(i)].features));
    EXPECT_TRUE(a.train[static_cast<std::size_t>(i)].label.equals(
        b.train[static_cast<std::size_t>(i)].label));
  }
}

TEST(Generator, SeedChangesData) {
  ClientSpec spec = paper_client_specs()[2];
  DatasetGenOptions o1 = tiny_options();
  DatasetGenOptions o2 = tiny_options();
  o2.seed = 999;
  ClientDataset a = generate_client_dataset(spec, o1);
  ClientDataset b = generate_client_dataset(spec, o2);
  EXPECT_GT(max_abs_diff(a.train[0].features, b.train[0].features), 0.0f);
}

TEST(Generator, NoDesignNameOverlapAnywhere) {
  // The paper's privacy setup: no design is shared between clients,
  // and no design is both training and testing.
  DatasetGenOptions opts = tiny_options();
  std::set<std::string> names;
  for (const ClientSpec& spec : paper_client_specs()) {
    ClientDataset ds = generate_client_dataset(spec, opts);
    for (const DesignInfo& d : ds.train_designs) {
      EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    }
    for (const DesignInfo& d : ds.test_designs) {
      EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    }
  }
  EXPECT_EQ(names.size(), 74u);
}

TEST(Generator, ClientsOfSameSuiteDifferInData) {
  // Clients 4 and 5 are both ISCAS'89 but hold different designs.
  DatasetGenOptions opts = tiny_options();
  ClientDataset c4 = generate_client_dataset(paper_client_specs()[3], opts);
  ClientDataset c5 = generate_client_dataset(paper_client_specs()[4], opts);
  EXPECT_GT(max_abs_diff(c4.train[0].features, c5.train[0].features), 0.0f);
}

TEST(Serialization, ClientDatasetRoundTrip) {
  ClientSpec spec = paper_client_specs()[1];
  ClientDataset ds = generate_client_dataset(spec, tiny_options());
  const std::string path =
      (std::filesystem::temp_directory_path() / "fleda_ds_test.bin").string();
  save_client_dataset(path, ds);
  ClientDataset loaded = load_client_dataset(path);
  EXPECT_EQ(loaded.client_id, ds.client_id);
  EXPECT_EQ(loaded.suite, ds.suite);
  ASSERT_EQ(loaded.num_train(), ds.num_train());
  ASSERT_EQ(loaded.num_test(), ds.num_test());
  ASSERT_EQ(loaded.train_designs.size(), ds.train_designs.size());
  EXPECT_EQ(loaded.train_designs[0].name, ds.train_designs[0].name);
  for (std::int64_t i = 0; i < ds.num_train(); ++i) {
    EXPECT_TRUE(loaded.train[static_cast<std::size_t>(i)].features.equals(
        ds.train[static_cast<std::size_t>(i)].features));
  }
  std::filesystem::remove(path);
}

TEST(Serialization, AllClientsRoundTripAndMissingDirReturnsEmpty) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fleda_ds_dir").string();
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(try_load_all_clients(dir, 2).empty());

  std::vector<ClientDataset> clients;
  clients.push_back(
      generate_client_dataset(paper_client_specs()[1], tiny_options()));
  clients.push_back(
      generate_client_dataset(paper_client_specs()[2], tiny_options()));
  clients[0].client_id = 1;
  clients[1].client_id = 2;
  save_all_clients(dir, clients);
  std::vector<ClientDataset> loaded = try_load_all_clients(dir, 2);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].client_id, 1);
  EXPECT_EQ(loaded[1].client_id, 2);
  std::filesystem::remove_all(dir);
}

// --- hostile cache files ---------------------------------------------

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string u32_bytes(std::uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

// The file's header: magic, client id, suite.
std::string dataset_header() {
  return u32_bytes(0xF1EDA001u) + u32_bytes(3) + u32_bytes(0);
}

// Loading `bytes` must raise std::runtime_error naming the file — never
// bad_alloc, which would escape the catch below and fail the test.
void expect_load_error_names_the_file(const std::string& bytes,
                                      const std::string& label) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("fleda_ds_" + label + ".bin"))
          .string();
  write_bytes(path, bytes);
  try {
    load_client_dataset(path);
    ADD_FAILURE() << label << ": corrupt file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << label << ": " << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Serialization, HostileDesignAndSampleCountsAreRejectedBeforeAllocating) {
  // 0xFFFFFFFF designs, then 0xFFFFFFFF samples after two empty design
  // lists: each would ask for ~2^32 elements.
  expect_load_error_names_the_file(dataset_header() + u32_bytes(0xFFFFFFFFu),
                                   "design_count");
  expect_load_error_names_the_file(dataset_header() + u32_bytes(0) +
                                       u32_bytes(0) + u32_bytes(0xFFFFFFFFu),
                                   "sample_count");
}

TEST(Serialization, TruncatedNamesAndSamplesNameTheFile) {
  // One design whose name claims 10 bytes but carries 3.
  expect_load_error_names_the_file(
      dataset_header() + u32_bytes(1) + u32_bytes(10) + "abc", "name");

  ClientDataset ds =
      generate_client_dataset(paper_client_specs()[1], tiny_options());
  const std::string path =
      (std::filesystem::temp_directory_path() / "fleda_ds_whole.bin").string();
  save_client_dataset(path, ds);
  const std::string whole = read_bytes(path);
  std::filesystem::remove(path);
  // Cut inside the last test sample's label payload.
  expect_load_error_names_the_file(whole.substr(0, whole.size() - 5),
                                   "sample");
  expect_load_error_names_the_file(std::string("junk"), "magic");
}

TEST(HotspotRate, ComputedOverAllSamples) {
  std::vector<Sample> samples(2);
  samples[0].label = Tensor::full(Shape{1, 2, 2}, 1.0f);
  samples[0].features = Tensor(Shape{1, 2, 2});
  samples[1].label = Tensor(Shape{1, 2, 2});
  samples[1].features = Tensor(Shape{1, 2, 2});
  EXPECT_DOUBLE_EQ(dataset_hotspot_rate(samples), 0.5);
  EXPECT_DOUBLE_EQ(dataset_hotspot_rate({}), 0.0);
}

}  // namespace
}  // namespace fleda
