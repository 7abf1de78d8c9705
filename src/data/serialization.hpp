// Binary (de)serialization of client datasets so that expensive
// generation can be cached between bench runs.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace fleda {

void save_client_dataset(const std::string& path, const ClientDataset& ds);
// The file's bytes are untrusted: a bad magic, a count larger than the
// bytes left can hold, or a truncated name, sample or tensor throws
// std::runtime_error naming `path`, before anything is allocated for it.
ClientDataset load_client_dataset(const std::string& path);

void save_all_clients(const std::string& dir,
                      const std::vector<ClientDataset>& clients);
// Returns an empty vector if the directory/files are missing.
std::vector<ClientDataset> try_load_all_clients(const std::string& dir,
                                                int num_clients);

}  // namespace fleda
