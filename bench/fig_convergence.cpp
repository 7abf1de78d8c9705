// Supplementary convergence bench. Figures 1 and 2 of the paper are
// architecture diagrams, not measured plots; this bench exercises the
// round loop they depict and reports average test AUC per round for
// FedAvg vs FedProx (the heterogeneity-robustness story behind the
// paper's choice of FedProx), printed as a plottable series.
#include "bench_common.hpp"

int main() {
  using namespace fleda;
  ExperimentConfig cfg = bench::make_config(ModelKind::kFLNet);
  std::printf("== Fig (supplementary): round-by-round convergence, FLNet ==\n");
  Timer total;
  Experiment exp(cfg);
  exp.prepare_data();

  auto fedavg = exp.run_convergence("fedavg");
  auto fedprox = exp.run_convergence("fedprox");

  AsciiTable t("Average test ROC AUC per round");
  t.set_header({"Round", "FedAvg", "FedProx"});
  for (std::size_t r = 0; r < fedprox.size(); ++r) {
    t.add_row({std::to_string(r + 1),
               r < fedavg.size() ? AsciiTable::fmt(fedavg[r].average_auc, 3)
                                 : "-",
               AsciiTable::fmt(fedprox[r].average_auc, 3)});
  }
  t.print();
  std::printf("total time %.1fs\n\n", total.seconds());
  return 0;
}
