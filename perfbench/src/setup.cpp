// Set-up as a user pays it per run: train the workload's paper-config
// model from a fixed seed with a fixed epoch count (early stopping off),
// pack it into the binary artifact, load the artifact back, and -- for
// the serve workload -- start gana_serve on it until it answers ping.
#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "datagen/dataset.hpp"
#include "gcn/serialize.hpp"
#include "gcn/trainer.hpp"
#include "serve/client.hpp"

namespace pb {

using namespace gana;

namespace {

void train_and_pack(const std::string& domain, const std::string& out) {
  datagen::DatasetOptions dopt;
  dopt.circuits = 150;
  dopt.seed = 1;
  std::vector<datagen::LabeledCircuit> dataset;
  std::size_t classes = 2;
  if (domain == "rf") {
    dataset = datagen::make_rf_dataset(dopt);
    classes = 3;
  } else {
    dataset = datagen::make_ota_dataset(dopt);
  }
  gcn::ModelConfig cfg;
  cfg.in_features = core::kNumFeatures;
  cfg.num_classes = classes;
  cfg.conv_channels = {32, 64};
  cfg.cheb_k = 8;
  cfg.fc_hidden = 512;
  cfg.seed = 7;
  gcn::GcnModel model(cfg);
  auto samples = core::make_gcn_samples(dataset, 0, 11);
  auto [train_set, val_set] = gcn::split_dataset(std::move(samples), 0.8, 13);
  gcn::TrainConfig tc;
  tc.epochs = 15;
  tc.patience = 0;
  (void)gcn::train(model, train_set, val_set, tc);
  auto saved = gcn::save_model_artifact(model, out);
  if (!saved.ok()) die("cannot pack model: " + saved.diag().render());
  auto loaded = gcn::load_model_any(out);
  if (!loaded.ok() ||
      loaded.value().weights_fingerprint() != model.weights_fingerprint()) {
    die("packed model does not load back identically");
  }
}

}  // namespace

Child start_server(const std::string& socket, const std::string& model,
                   const std::string& domain) {
  return spawn({exe_dir() + "/gana_serve", "--socket", socket, "--load-model",
                model, "--domain", domain, "--jobs", "2", "--max-inflight",
                "1024"});
}

bool wait_for_ping(const std::string& socket, double timeout) {
  serve::ClientOptions opt;
  opt.socket_path = socket;
  opt.timeout_seconds = 1.0;
  opt.max_retries = 0;
  const double deadline = now() + timeout;
  while (now() < deadline) {
    serve::Client client(opt);
    if (client.ping()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

int run_setup(const Options& o) {
  std::vector<double> seconds;
  for (int rep = 0; rep < o.reps; ++rep) {
    const double t0 = now();
    train_and_pack(o.domain, o.model);
    if (o.workload == "serve") {
      const std::string socket = o.work + "/setup.sock";
      const Child server = start_server(socket, o.model, o.domain);
      const bool up = wait_for_ping(socket, 30.0);
      seconds.push_back(now() - t0);
      stop_child(server);
      if (!up) die("gana_serve did not answer ping");
    } else {
      seconds.push_back(now() - t0);
    }
  }
  std::printf("{\"setup_s\": [");
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    std::printf("%s%.6f", i ? ", " : "", seconds[i]);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace pb
