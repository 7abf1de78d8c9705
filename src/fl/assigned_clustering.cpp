#include "fl/assigned_clustering.hpp"

#include <algorithm>

namespace fleda {
namespace {

int cluster_count(const std::vector<int>& assignment) {
  return assignment.empty()
             ? 0
             : 1 + *std::max_element(assignment.begin(), assignment.end());
}

}  // namespace

AssignedClustering::AssignedClustering(std::vector<int> assignment)
    : FedProx(cluster_count(assignment), assignment) {}

AssignedClustering AssignedClustering::paper_assignment() {
  // Clients 1-3 (ITC'99), 4-6 (ISCAS'89), 7-8 (IWLS'05), 9 (ISPD'15).
  return AssignedClustering({0, 0, 0, 1, 1, 1, 2, 2, 3});
}

}  // namespace fleda
