#include "core/evaluation.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fleda {
namespace {

double average(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Evaluates model_for(k) on clients[k], for every client in parallel.
template <typename ModelFor>
MethodResult evaluate_each(const std::string& method,
                           std::vector<Client>& clients, ModelFor model_for) {
  MethodResult result;
  result.method = method;
  result.client_auc.resize(clients.size());
  parallel_for(clients.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      result.client_auc[k] = clients[k].evaluate_test_auc(model_for(k));
    }
  });
  result.average = average(result.client_auc);
  return result;
}

}  // namespace

MethodResult evaluate_per_client(const std::string& method,
                                 std::vector<Client>& clients,
                                 const std::vector<ModelParameters>& finals) {
  if (clients.size() != finals.size()) {
    throw std::invalid_argument("evaluate_per_client: size mismatch");
  }
  return evaluate_each(method, clients,
                       [&](std::size_t k) -> const ModelParameters& {
                         return finals[k];
                       });
}

MethodResult evaluate_shared(const std::string& method,
                             std::vector<Client>& clients,
                             const ModelParameters& model) {
  return evaluate_each(
      method, clients,
      [&](std::size_t) -> const ModelParameters& { return model; });
}

}  // namespace fleda
