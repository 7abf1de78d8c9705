// Microbenchmark for the src/comm/ parameter-exchange subsystem.
//
// Part 1 measures encode/decode throughput (MB/s of fp32-equivalent
// payload) and compression ratio for every codec on a realistic FLNet
// snapshot. Part 2 runs the same FedProx experiment end-to-end through
// an Fp32 channel and an Int8Quant channel and reports the upload-byte
// reduction plus the final-model test AUC of both runs (which should
// agree within noise).
//
// Output is one JSON object per line, easy to diff/collect in CI:
//   {"bench":"codec","name":"int8",...}
//   {"bench":"e2e","codec":"int8",...}
// plus a machine-readable BENCH_comm.json (codec throughput and
// compression ratios, e2e upload reduction, and the merged per-phase
// profile) for the perf trajectory — future PRs diff it against this
// run's CI artifact.
//
// The codec timings are ProfileScope spans (the profiler is
// force-enabled for the whole bench), so the MB/s columns and the
// embedded profile's codec/encode + codec/decode phases come from the
// same clock and the same measurements.
//
// Honors FLEDA_SCALE (default smoke — this is a bandwidth bench, not
// an accuracy bench) and FLEDA_CACHE_DIR like the table benches.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "comm/codec.hpp"
#include "core/experiment.hpp"
#include "models/registry.hpp"
#include "obs/profiler.hpp"
#include "phys/features.hpp"

namespace fleda {
namespace {

struct CodecRow {
  std::string name;
  double compression = 0.0;
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
};

ModelParameters paper_snapshot(std::uint64_t seed) {
  Rng rng(seed);
  RoutabilityModelPtr model =
      make_model(ModelKind::kFLNet, kNumFeatureChannels, rng);
  return ModelParameters::from_model(*model);
}

CodecRow bench_codec(const ParameterCodec& codec,
                     const ModelParameters& params,
                     const ModelParameters& reference, int repeats) {
  // Warm-up + size probe.
  ByteBuffer blob = codec.encode(params, &reference);
  const double raw_mb = static_cast<double>(raw_wire_bytes(params)) / 1e6;

  // The timing spans double as profiler phases: the codec/encode and
  // codec/decode rows of the embedded report are these exact loops.
  double encode_s = 0.0;
  {
    ProfileScope scope(phase::kCodecEncode);
    for (int i = 0; i < repeats; ++i) {
      ByteBuffer b = codec.encode(params, &reference);
    }
    encode_s = scope.seconds();
  }

  double decode_s = 0.0;
  {
    ProfileScope scope(phase::kCodecDecode);
    for (int i = 0; i < repeats; ++i) {
      ModelParameters p = codec.decode(blob, &reference);
    }
    decode_s = scope.seconds();
  }

  CodecRow row;
  row.name = codec.name();
  row.compression = static_cast<double>(raw_wire_bytes(params)) /
                    static_cast<double>(blob.size());
  row.encode_mb_per_s = raw_mb * repeats / encode_s;
  row.decode_mb_per_s = raw_mb * repeats / decode_s;
  std::printf(
      "{\"bench\":\"codec\",\"name\":\"%s\",\"raw_mb\":%.3f,"
      "\"encoded_mb\":%.3f,\"compression\":%.2f,"
      "\"encode_mb_per_s\":%.1f,\"decode_mb_per_s\":%.1f}\n",
      row.name.c_str(), raw_mb, static_cast<double>(blob.size()) / 1e6,
      row.compression, row.encode_mb_per_s, row.decode_mb_per_s);
  return row;
}

struct E2EResult {
  double upload_mb = 0.0;
  double avg_auc = 0.0;
  double sim_latency_s = 0.0;
};

E2EResult run_e2e(Experiment& exp, CodecKind uplink) {
  // Mutating the comm config between runs is the whole point of the
  // bench; everything else (data, seeds) stays fixed.
  ExperimentConfig cfg = exp.config();
  cfg.comm.uplink = uplink;
  Experiment run(cfg);
  run.prepare_data();
  MethodResult row = run.run_method("fedprox");
  E2EResult r;
  r.upload_mb = row.comm.uplink_mb();
  r.avg_auc = row.average;
  r.sim_latency_s = row.comm.simulated_latency_s;
  return r;
}

void write_bench_json(const std::vector<CodecRow>& codecs,
                      const E2EResult& fp32, const E2EResult& int8,
                      double reduction, const ProfileReport& profile,
                      int distinct_phases) {
  std::FILE* f = std::fopen("BENCH_comm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_comm: cannot write BENCH_comm.json\n");
    return;
  }
  std::fprintf(f, "{\"bench\":\"micro_comm\",\"codecs\":[");
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"compression\":%.2f,\"encode_mb_per_s\":%.1f,"
        "\"decode_mb_per_s\":%.1f}",
        i == 0 ? "" : ",", codecs[i].name.c_str(), codecs[i].compression,
        codecs[i].encode_mb_per_s, codecs[i].decode_mb_per_s);
  }
  std::fprintf(
      f,
      "],\"e2e\":{\"fp32_upload_mb\":%.3f,\"int8_upload_mb\":%.3f,"
      "\"upload_reduction\":%.2f,\"auc_delta\":%.4f},"
      "\"distinct_phases\":%d,\"profile\":%s}\n",
      fp32.upload_mb, int8.upload_mb, reduction, int8.avg_auc - fp32.avg_auc,
      distinct_phases, profile.to_json().c_str());
  std::fclose(f);
}

int main_impl() {
  // Force the instrumented mode regardless of FLEDA_PROFILE: the codec
  // MB/s columns are profiler spans, so without it there is no bench.
  Profiler::set_enabled(true);
  Profiler::reset();

  const ModelParameters params = paper_snapshot(1);
  const ModelParameters reference = paper_snapshot(2);
  const int repeats = 20;

  std::vector<CodecRow> codec_rows;
  for (CodecKind kind : {CodecKind::kFp32, CodecKind::kFp16,
                         CodecKind::kInt8Quant, CodecKind::kTopKDelta}) {
    std::unique_ptr<ParameterCodec> codec = make_codec(kind, 0.05);
    codec_rows.push_back(bench_codec(*codec, params, reference, repeats));
  }

  // End-to-end: FedProx through fp32 vs int8 uplinks.
  ExperimentConfig cfg;
  cfg.model = ModelKind::kFLNet;
  const char* scale = std::getenv("FLEDA_SCALE");
  cfg.scale = resolve_scale(scale == nullptr ? "smoke" : scale);
  const char* cache = std::getenv("FLEDA_CACHE_DIR");
  cfg.cache_dir = cache != nullptr ? cache : ".fleda-cache";
  Experiment exp(cfg);

  const E2EResult fp32 = run_e2e(exp, CodecKind::kFp32);
  const E2EResult int8 = run_e2e(exp, CodecKind::kInt8Quant);
  const double reduction =
      int8.upload_mb > 0.0 ? fp32.upload_mb / int8.upload_mb : 0.0;

  std::printf(
      "{\"bench\":\"e2e\",\"codec\":\"fp32\",\"upload_mb\":%.3f,"
      "\"avg_auc\":%.4f,\"sim_latency_s\":%.1f}\n",
      fp32.upload_mb, fp32.avg_auc, fp32.sim_latency_s);
  std::printf(
      "{\"bench\":\"e2e\",\"codec\":\"int8\",\"upload_mb\":%.3f,"
      "\"avg_auc\":%.4f,\"sim_latency_s\":%.1f,"
      "\"upload_reduction_vs_fp32\":%.2f,\"auc_delta\":%.4f}\n",
      int8.upload_mb, int8.avg_auc, int8.sim_latency_s, reduction,
      int8.avg_auc - fp32.avg_auc);

  // The merged per-phase profile: the codec loops above plus the two
  // end-to-end FedProx runs (training, channel codecs, aggregation,
  // dispatch, pool). Fewer than 6 live phases means an instrumentation
  // regression somewhere in the library.
  const ProfileReport profile = Profiler::report();
  int distinct_phases = 0;
  for (const PhaseReport& p : profile.phases) {
    if (p.count > 0) ++distinct_phases;
  }
  const bool profile_ok = distinct_phases >= 6;
  std::printf("{\"bench\":\"profile\",\"distinct_phases\":%d,\"pass\":%s}\n",
              distinct_phases, profile_ok ? "true" : "false");

  write_bench_json(codec_rows, fp32, int8, reduction, profile,
                   distinct_phases);
  return reduction >= 3.5 && profile_ok ? 0 : 1;
}

}  // namespace
}  // namespace fleda

int main() { return fleda::main_impl(); }
