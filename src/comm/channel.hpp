// Channel: the metered transport every parameter exchange of the round
// loop goes through. The server broadcasts deployed snapshots down it
// and collects client updates up it; each message is encoded with the
// configured codec and byte/message counts are accumulated per client,
// per round, and cumulatively.
//
// Latency model: each client k owns a link (ClientLink) — uplink and
// downlink rates plus a fixed per-message cost — defaulting to the
// shared CommConfig rates when no per-client links are set. A client's
// transfers within a round are serial on its own link; different
// clients transfer in parallel. Standalone (no simulation engine), a
// round costs max over clients of that client's serial transfer time;
// under src/sim the engine schedules per-client transfer completions
// as events on the virtual clock and closes the round with the
// engine-computed duration via end_round(duration).
//
// Error feedback (CommConfig::error_feedback): with a lossy uplink
// codec, each client keeps the residual update - decode(encode(update))
// and adds it to the next round's update before encoding, so small but
// consistent components are not silently dropped forever.
//
// Delta downlink (CommConfig::downlink = kTopKDelta): the server
// tracks, per client, the snapshot that client last decoded and
// encodes each downlink delta against it — both sides hold the
// reference, so clients sampled in different rounds still reconstruct
// consistently (first contact encodes against zeros).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/codec.hpp"

namespace fleda {

struct CommConfig {
  CodecKind uplink = CodecKind::kFp32;    // client -> server updates
  CodecKind downlink = CodecKind::kFp32;  // server -> client deployments
  double topk_fraction = 0.05;            // TopKDeltaCodec keep fraction
  // Shared default link parameters (100 Mbit/s up, 500 Mbit/s down,
  // 50 ms fixed cost per message); per-client overrides come from
  // Channel::set_links / ClientProfile.
  double uplink_bytes_per_sec = 12.5e6;
  double downlink_bytes_per_sec = 62.5e6;
  double per_message_latency_s = 0.05;
  // Client-side error-feedback accumulators for lossy uplink codecs.
  bool error_feedback = false;
};

// Per-client link parameters; non-positive rate / negative latency
// inherit the CommConfig shared defaults.
struct ClientLink {
  double uplink_bytes_per_sec = 0.0;
  double downlink_bytes_per_sec = 0.0;
  double per_message_latency_s = -1.0;

  // This link with every "inherit" sentinel replaced by the CommConfig
  // shared default — the single place the fallback rule lives.
  ClientLink with_defaults(const CommConfig& config) const;
};

// One client's traffic within the current round.
struct ClientRoundTraffic {
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_messages = 0;
  std::uint64_t uplink_messages = 0;
};

struct RoundCommStats {
  int round = 0;
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_messages = 0;
  std::uint64_t downlink_messages = 0;
  double simulated_latency_s = 0.0;
};

struct ChannelStats {
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  // What the same exchanges would have cost uncompressed (fp32).
  std::uint64_t raw_uplink_bytes = 0;
  std::uint64_t raw_downlink_bytes = 0;
  std::uint64_t uplink_messages = 0;
  std::uint64_t downlink_messages = 0;
  double simulated_latency_s = 0.0;
  std::vector<RoundCommStats> rounds;

  double uplink_compression() const;    // raw / actual; 1.0 when idle
  double downlink_compression() const;
  double uplink_mb() const { return static_cast<double>(uplink_bytes) / 1e6; }
  double downlink_mb() const {
    return static_cast<double>(downlink_bytes) / 1e6;
  }
};

class Channel {
 public:
  explicit Channel(const CommConfig& config);

  // Installs per-client links (index = client). An empty vector (the
  // default) means every client uses the CommConfig shared rates.
  void set_links(std::vector<ClientLink> links);
  // Client k's link with CommConfig defaults filled in.
  ClientLink link(std::size_t k) const;

  // Server -> clients. deployed[k] is the snapshot addressed to client
  // k; repeated pointers (a shared global model) are encoded once but
  // billed per recipient, like a broadcast. Returns what each client
  // decodes — under a lossy codec this is what the client actually
  // trains from. Each distinct (snapshot, per-client downlink
  // reference) pair is decoded once and shared across recipients
  // (recipients must not mutate it).
  std::vector<std::shared_ptr<const ModelParameters>> broadcast(
      const std::vector<const ModelParameters*>& deployed);

  // Cohort-addressed form: deployed[i] goes to client recipients[i]
  // (indices must be distinct within one call). Only the named
  // recipients are billed — under partial participation a round's
  // downlink cost is O(|cohort|), not O(K).
  std::vector<std::shared_ptr<const ModelParameters>> broadcast(
      const std::vector<const ModelParameters*>& deployed,
      const std::vector<std::size_t>& recipients);

  // Clients -> server. references[k] is the snapshot client k started
  // from this round (already held by both sides; delta codecs encode
  // against it). Encoding happens client-side and decoding server-side,
  // both in parallel on ThreadPool::global(). Returns the server-side
  // view of each update.
  std::vector<ModelParameters> collect(
      const std::vector<ModelParameters>& updates,
      const std::vector<const ModelParameters*>& references);

  // Cohort-addressed form: updates[i] comes from client senders[i]
  // (indices must be distinct within one call).
  std::vector<ModelParameters> collect(
      const std::vector<ModelParameters>& updates,
      const std::vector<const ModelParameters*>& references,
      const std::vector<std::size_t>& senders);

  // Streaming collect: the fully O(1)-per-client form. Produces, wires,
  // and consumes one update at a time — the cohort is never
  // materialized on either side.
  //
  // `lane_offsets` (fold_lane_offsets(n, lanes)) partitions cohort
  // positions [0, n) into contiguous lanes; lanes run in parallel on
  // the pool, each lane walks its block serially in cohort order. For
  // each position i: produce(i) yields client senders[i]'s update
  // (callers typically train the client inside produce, so lanes are
  // also the round's training parallelism), the update goes through the
  // uplink codec roundtrip, consume(lane, i, decoded) folds the
  // server-side view in, and both copies are freed before i + 1 starts.
  //
  // produce/consume run on lane threads for distinct positions
  // concurrently; billing is reduced serially afterwards, in cohort
  // order, exactly like collect(). A throw from produce/consume/codec
  // stops that lane; the earliest-lane error is rethrown on the caller
  // thread after all lanes settle.
  void collect_streaming(
      const std::vector<std::size_t>& senders,
      const std::vector<const ModelParameters*>& references,
      const std::vector<std::size_t>& lane_offsets,
      const std::function<ModelParameters(std::size_t)>& produce,
      const std::function<void(std::size_t, std::size_t, ModelParameters&&)>&
          consume);

  // Per-message primitives for event-driven schedules (AsyncFedAvg):
  // one deployment to / one update from a single client, billed to
  // that client's round traffic. bytes_out (optional) receives the
  // encoded wire size so the caller can schedule the transfer
  // completion on the simulation clock.
  std::shared_ptr<const ModelParameters> send_down(
      std::size_t client, const ModelParameters& snapshot,
      std::uint64_t* bytes_out = nullptr);
  ModelParameters send_up(std::size_t client, const ModelParameters& update,
                          const ModelParameters* reference,
                          std::uint64_t* bytes_out = nullptr);

  // Closes the current round's accounting entry. The no-argument form
  // derives the round's simulated latency from the per-client links
  // (max over clients of serial transfer time — no compute); the
  // other form records an engine-computed duration (transfers +
  // compute + availability on the virtual clock).
  void end_round();
  void end_round(double simulated_duration_s);

  // Per-client traffic of the round currently being accumulated.
  const std::vector<ClientRoundTraffic>& round_traffic() const {
    return traffic_;
  }

  const CommConfig& config() const { return config_; }
  const ChannelStats& stats() const { return stats_; }

 private:
  void ensure_clients(std::size_t n);
  void bill_downlink(std::size_t client, std::uint64_t bytes,
                     std::uint64_t raw_bytes);
  void bill_uplink(std::size_t client, std::uint64_t bytes,
                   std::uint64_t raw_bytes);
  // Client-side encode (with error feedback) + server-side decode of
  // one update. Not thread-safe across the same client index; safe for
  // distinct clients.
  ModelParameters uplink_roundtrip(std::size_t client,
                                   const ModelParameters& update,
                                   const ModelParameters* reference,
                                   std::uint64_t* bytes,
                                   std::uint64_t* raw_bytes);

  CommConfig config_;
  std::unique_ptr<ParameterCodec> uplink_codec_;
  std::unique_ptr<ParameterCodec> downlink_codec_;
  // Downlink deltas (TopKDelta) encode against what each client last
  // decoded from the server, not against nullptr.
  bool downlink_delta_ = false;
  std::vector<ClientLink> links_;
  ChannelStats stats_;
  RoundCommStats current_round_;
  std::vector<ClientRoundTraffic> traffic_;
  // Per-client error-feedback residuals (empty snapshot = no residual
  // yet); only populated when config_.error_feedback and the uplink
  // codec is lossy.
  std::vector<ModelParameters> residuals_;
  // Per-client server-side reference tracking for delta downlinks:
  // the snapshot client k last decoded (shared with the recipient —
  // both sides hold it, so the next delta encodes against it). Only
  // populated when downlink_delta_.
  std::vector<std::shared_ptr<const ModelParameters>> downlink_refs_;
};

}  // namespace fleda
