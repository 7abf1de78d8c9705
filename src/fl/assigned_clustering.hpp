// Assigned clustering (paper Fig. 2c): like IFCA, but each client's
// cluster is fixed up front from prior knowledge of client similarity.
// The paper assigns {1,2,3}, {4,5,6}, {7,8}, {9} — i.e. one cluster
// per benchmark suite. The rounds are FedProx's clustered body.
#pragma once

#include "fl/fedprox.hpp"

namespace fleda {

class AssignedClustering : public FedProx {
 public:
  // assignment[k] = cluster index of client k (0-based clusters).
  explicit AssignedClustering(std::vector<int> assignment);

  // The paper's 4-cluster suite-based assignment for K = 9.
  static AssignedClustering paper_assignment();

  std::string name() const override { return "Assigned Clustering"; }
};

}  // namespace fleda
