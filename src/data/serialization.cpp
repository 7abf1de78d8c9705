#include "data/serialization.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "tensor/serialize.hpp"

namespace fleda {
namespace {

constexpr std::uint32_t kMagic = 0xF1EDA001;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("dataset read: truncated");
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Reads a u32 element count and rejects it, before anything is
// allocated, when `min_bytes` per element cannot fit in the bytes left
// (a stream that cannot seek is not checked: its vectors then grow
// only as elements actually arrive).
std::uint32_t read_count(std::istream& in, std::size_t min_bytes,
                         const char* what) {
  const std::uint32_t n = read_u32(in);
  const std::int64_t left = stream_bytes_left(in);
  if (left >= 0 && static_cast<std::uint64_t>(n) * min_bytes >
                       static_cast<std::uint64_t>(left)) {
    throw std::runtime_error("dataset read: " + std::to_string(n) + " " +
                             what + " claimed but only " +
                             std::to_string(left) + " bytes are left");
  }
  return n;
}

std::string read_string(std::istream& in) {
  const std::uint32_t n = read_count(in, 1, "name bytes");
  if (n > (1u << 20)) throw std::runtime_error("dataset read: bad string");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) throw std::runtime_error("dataset read: truncated string");
  return s;
}

void write_designs(std::ostream& out, const std::vector<DesignInfo>& designs) {
  write_u32(out, static_cast<std::uint32_t>(designs.size()));
  for (const DesignInfo& d : designs) {
    write_string(out, d.name);
    write_u32(out, static_cast<std::uint32_t>(d.suite));
    write_u32(out, static_cast<std::uint32_t>(d.num_placements));
  }
}

std::vector<DesignInfo> read_designs(std::istream& in) {
  // A design is at least its name length, suite and placement count.
  const std::uint32_t n = read_count(in, 12, "designs");
  std::vector<DesignInfo> designs;
  for (std::uint32_t i = 0; i < n; ++i) {
    DesignInfo& d = designs.emplace_back();
    d.name = read_string(in);
    d.suite = static_cast<BenchmarkSuite>(read_u32(in));
    d.num_placements = read_u32(in);
  }
  return designs;
}

void write_samples(std::ostream& out, const std::vector<Sample>& samples) {
  write_u32(out, static_cast<std::uint32_t>(samples.size()));
  for (const Sample& s : samples) {
    write_tensor(out, s.features);
    write_tensor(out, s.label);
  }
}

std::vector<Sample> read_samples(std::istream& in) {
  // A sample is at least two tensor headers (magic + rank each).
  const std::uint32_t n = read_count(in, 16, "samples");
  std::vector<Sample> samples;
  for (std::uint32_t i = 0; i < n; ++i) {
    Sample& s = samples.emplace_back();
    s.features = read_tensor(in);
    s.label = read_tensor(in);
  }
  return samples;
}

ClientDataset read_client_dataset(std::istream& in) {
  if (read_u32(in) != kMagic) {
    throw std::runtime_error("dataset read: bad magic");
  }
  ClientDataset ds;
  ds.client_id = static_cast<int>(read_u32(in));
  ds.suite = static_cast<BenchmarkSuite>(read_u32(in));
  ds.train_designs = read_designs(in);
  ds.test_designs = read_designs(in);
  ds.train = read_samples(in);
  ds.test = read_samples(in);
  return ds;
}

}  // namespace

void save_client_dataset(const std::string& path, const ClientDataset& ds) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_client_dataset: cannot open " + path);
  write_u32(out, kMagic);
  write_u32(out, static_cast<std::uint32_t>(ds.client_id));
  write_u32(out, static_cast<std::uint32_t>(ds.suite));
  write_designs(out, ds.train_designs);
  write_designs(out, ds.test_designs);
  write_samples(out, ds.train);
  write_samples(out, ds.test);
  if (!out) throw std::runtime_error("save_client_dataset: write failure");
}

ClientDataset load_client_dataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_client_dataset: cannot open " + path);
  try {
    return read_client_dataset(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("load_client_dataset: " + path + ": " + e.what());
  }
}

void save_all_clients(const std::string& dir,
                      const std::vector<ClientDataset>& clients) {
  std::filesystem::create_directories(dir);
  for (const ClientDataset& ds : clients) {
    save_client_dataset(dir + "/client" + std::to_string(ds.client_id) + ".bin",
                        ds);
  }
}

std::vector<ClientDataset> try_load_all_clients(const std::string& dir,
                                                int num_clients) {
  std::vector<ClientDataset> clients;
  for (int id = 1; id <= num_clients; ++id) {
    const std::string path = dir + "/client" + std::to_string(id) + ".bin";
    if (!std::filesystem::exists(path)) return {};
    clients.push_back(load_client_dataset(path));
  }
  return clients;
}

}  // namespace fleda
