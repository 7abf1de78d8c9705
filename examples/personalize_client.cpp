// Personalization walkthrough for one design company (client): compare
//   - its locally-trained model (the traditional baseline b_k),
//   - the generalized FedProx model trained across all 9 clients,
//   - the FedProx model fine-tuned on the client's own data
// on that client's private test designs — the paper's §5.2 story from
// a single client's perspective.
//
// Usage: personalize_client [--client 1..9] [--model flnet] [--scale smoke|quick|full]
#include <cstdio>

#include "core/experiment.hpp"
#include "fl/baselines.hpp"
#include "fl/fedprox.hpp"
#include "fl/finetune.hpp"
#include "phys/features.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fleda;

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  const int client_id = cli.get_int("client", 2);
  if (client_id < 1 || client_id > 9) {
    std::fprintf(stderr, "client must be 1..9\n");
    return 1;
  }
  ExperimentConfig cfg;
  cfg.model = parse_model_kind(cli.get_string("model", "flnet"));
  cfg.scale = resolve_scale(cli.get_string("scale", "quick"));
  cfg.cache_dir = ".fleda-cache";

  Experiment exp(cfg);
  std::printf("Preparing the 9-client dataset (Table 2 replica)...\n");
  exp.prepare_data();
  const std::size_t k = static_cast<std::size_t>(client_id - 1);
  std::printf("Client %d owns %s designs: %lld train / %lld test samples\n",
              client_id, to_string(exp.data()[k].suite).c_str(),
              static_cast<long long>(exp.data()[k].num_train()),
              static_cast<long long>(exp.data()[k].num_test()));

  std::printf("Training local baseline b_%d...\n", client_id);
  MethodResult local = exp.run_method("local");
  std::printf("Running FedProx across all clients...\n");
  MethodResult fedprox = exp.run_method("fedprox");
  std::printf("Running FedProx + local fine-tuning...\n");
  MethodResult finetuned = exp.run_method("fedprox_finetune");

  AsciiTable t("Client " + std::to_string(client_id) + " test ROC AUC");
  t.set_header({"Model", "AUC (this client)", "AUC (9-client average)"});
  t.add_row({"Local only (b_k)", AsciiTable::fmt(local.client_auc[k], 3),
             AsciiTable::fmt(local.average, 3)});
  t.add_row({"FedProx generalized", AsciiTable::fmt(fedprox.client_auc[k], 3),
             AsciiTable::fmt(fedprox.average, 3)});
  t.add_row({"FedProx + fine-tuning",
             AsciiTable::fmt(finetuned.client_auc[k], 3),
             AsciiTable::fmt(finetuned.average, 3)});
  t.print();

  const double gain = finetuned.client_auc[k] - local.client_auc[k];
  std::printf("Personalization gain over local training: %+.3f AUC\n", gain);
  return 0;
}
